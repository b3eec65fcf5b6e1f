package check

import (
	"math/rand"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
	"dagmutex/internal/workload"
)

func dagConfig(tree *topology.Tree, holder mutex.ID) mutex.Config {
	return mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
}

func TestAutomatonAcceptsRealRuns(t *testing.T) {
	topos := map[string]*topology.Tree{
		"line":   topology.Line(7),
		"star":   topology.Star(7),
		"kary":   topology.KAry(7, 2),
		"random": topology.Random(7, rand.New(rand.NewSource(3))),
	}
	for name, tree := range topos {
		t.Run(name, func(t *testing.T) {
			a := NewAutomaton()
			c, err := cluster.New(a.Builder, dagConfig(tree, 4), cluster.WithCSTime(sim.Hop))
			if err != nil {
				t.Fatal(err)
			}
			workload.Closed{Requests: 5, Think: workload.Exponential(3 * sim.Hop),
				Rng: rand.New(rand.NewSource(11))}.Install(c)
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if err := a.Err(); err != nil {
				t.Fatalf("automaton violations: %v", err)
			}
			if a.Transitions() == 0 {
				t.Fatal("no transitions observed")
			}
			if got, want := c.Entries(), 5*tree.N(); got != want {
				t.Fatalf("entries = %d, want %d", got, want)
			}
		})
	}
}

func TestAutomatonRejectsIllegalTransition(t *testing.T) {
	a := NewAutomaton()
	a.states[1] = core.StateN
	a.observe(core.Event{Node: 1, Transition: core.TransKeepToken, State: core.StateH}) // 5 is illegal from N
	if a.Err() == nil {
		t.Fatal("illegal transition not flagged")
	}
	b := NewAutomaton()
	b.states[2] = core.StateN
	b.observe(core.Event{Node: 2, Transition: core.TransRequest, State: core.StateH}) // right edge, wrong landing state
	if b.Err() == nil {
		t.Fatal("wrong landing state not flagged")
	}
}

func TestQuiescentInvariantHoldsAfterRuns(t *testing.T) {
	tree := topology.KAry(10, 3)
	c, err := cluster.New(core.Builder, dagConfig(tree, 2))
	if err != nil {
		t.Fatal(err)
	}
	workload.Closed{Requests: 3}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	snaps, err := Snapshots(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := Quiescent(snaps); err != nil {
		t.Fatal(err)
	}
	if got := TokenCount(snaps); got != 1 {
		t.Fatalf("token count = %d, want 1", got)
	}
}

func TestQuiescentRejectsBadStates(t *testing.T) {
	mk := func(edit func([]core.Snapshot)) []core.Snapshot {
		snaps := []core.Snapshot{
			{ID: 1, Holding: true},
			{ID: 2, Next: 1},
			{ID: 3, Next: 2},
		}
		edit(snaps)
		return snaps
	}
	cases := []struct {
		name string
		edit func([]core.Snapshot)
	}{
		{"two holders", func(s []core.Snapshot) { s[1].Holding = true; s[1].Next = mutex.Nil }},
		{"no holder", func(s []core.Snapshot) { s[0].Holding = false }},
		{"dangling follow", func(s []core.Snapshot) { s[2].Follow = 1 }},
		{"requesting at quiescence", func(s []core.Snapshot) { s[2].Requesting = true; s[2].Next = mutex.Nil }},
		{"extra sink", func(s []core.Snapshot) { s[2].Next = mutex.Nil }},
		{"next cycle", func(s []core.Snapshot) { s[1].Next = 3 }},
	}
	for _, c := range cases {
		if err := Quiescent(mk(c.edit)); err == nil {
			t.Errorf("%s: Quiescent accepted a bad snapshot set", c.name)
		}
	}
}

func TestSinkPathsDetectsCycle(t *testing.T) {
	snaps := []core.Snapshot{
		{ID: 1, Next: 2},
		{ID: 2, Next: 3},
		{ID: 3, Next: 1},
	}
	if err := SinkPaths(snaps); err == nil {
		t.Fatal("cycle not detected")
	}
	snaps[2].Next = mutex.Nil
	if err := SinkPaths(snaps); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestSinkPathsDetectsEscape(t *testing.T) {
	snaps := []core.Snapshot{{ID: 1, Next: 42}}
	if err := SinkPaths(snaps); err == nil {
		t.Fatal("NEXT pointing outside the cluster not detected")
	}
}

func TestBoundedBypass(t *testing.T) {
	grants := []cluster.Grant{
		{Node: 1, ReqAt: 10},
		{Node: 2, ReqAt: 5},
		{Node: 3, ReqAt: 0},
	}
	// Grant 2 (ReqAt 0) was bypassed by two later-issued requests.
	if err := BoundedBypass(grants, 1); err == nil {
		t.Fatal("bypass above bound not flagged")
	}
	if err := BoundedBypass(grants, 2); err != nil {
		t.Fatalf("bypass within bound flagged: %v", err)
	}
}

func TestStarvationFreedomUnderHeavyLoad(t *testing.T) {
	// Theorem 2: under sustained contention every request is served; the
	// cluster run already fails on unserved requests, and bypass must stay
	// bounded.
	tree := topology.Star(8)
	c, err := cluster.New(core.Builder, dagConfig(tree, 1), cluster.WithCSTime(sim.Hop/2))
	if err != nil {
		t.Fatal(err)
	}
	workload.Closed{Requests: 20}.Install(c) // heavy: zero think time
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Entries(), 20*8; got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
	if err := BoundedBypass(c.Grants(), 2*tree.N()); err != nil {
		t.Fatal(err)
	}
}

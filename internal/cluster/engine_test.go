package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/raymond"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

// TestOneEngineBothVocabularies runs the same engine the two ways the
// repository uses it — closed loop to quiescence in hop ticks with a
// baseline protocol's boxed messages, and open loop for a simulated
// duration with a seeded per-send delay and core's by-value messages —
// twice each, and requires identical grant logs and counts.
func TestOneEngineBothVocabularies(t *testing.T) {
	tree := topology.KAry(15, 2)
	cfg := dagConfig(tree, 1)
	type outcome struct {
		Grants []Grant
		Counts sim.Counts
		Events uint64
	}
	cases := map[string]func(t *testing.T) outcome{
		"closed loop, Unit(Hop), raymond": func(t *testing.T) outcome {
			c, err := New(raymond.Builder, cfg, WithCSTime(sim.Hop/2))
			if err != nil {
				t.Fatal(err)
			}
			left := map[mutex.ID]int{}
			for _, id := range tree.IDs() {
				left[id] = 5
				c.RequestAt(sim.Time(id)*sim.Hop/3, id)
			}
			c.OnRelease(func(id mutex.ID, at sim.Time) {
				if left[id]--; left[id] > 0 {
					c.RequestAt(at+sim.Hop, id)
				}
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			return outcome{Grants: c.Grants(), Counts: c.Counts()}
		},
		"open loop, seeded per-send delay, core": func(t *testing.T) outcome {
			rng := rand.New(rand.NewSource(9))
			delay := func(_, _ mutex.ID, _ *rand.Rand) sim.Time {
				return sim.Time(200*time.Microsecond) + sim.Time(rng.Int63n(int64(2*time.Millisecond)))
			}
			c, err := New(core.Builder, cfg, WithCSTime(sim.Time(time.Millisecond)),
				WithNetworkOptions(sim.WithLatency(delay)))
			if err != nil {
				t.Fatal(err)
			}
			var out outcome
			c.OnGrant(func(g Grant) { out.Grants = append(out.Grants, g) })
			c.OnRelease(func(id mutex.ID, at sim.Time) {
				c.RequestAt(at+sim.Time(rng.ExpFloat64()*float64(50*time.Millisecond)), id)
			})
			for _, id := range tree.IDs() {
				c.RequestAt(sim.Time(rng.Int63n(int64(50*time.Millisecond))), id)
			}
			if out.Events, err = c.RunFor(sim.Time(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if len(c.Grants()) != 0 {
				t.Fatalf("open-loop run retained %d log entries", len(c.Grants()))
			}
			out.Counts = c.Counts()
			return out
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			a, b := run(t), run(t)
			if len(a.Grants) < 50 || a.Counts.Messages == 0 || a.Counts.Delivered+a.Counts.Dropped > a.Counts.Messages {
				t.Fatalf("run too small or miscounted: %d grants, counts %+v", len(a.Grants), a.Counts)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs of one build differ:\n  %d grants, %+v, %d events\n  %d grants, %+v, %d events",
					len(a.Grants), a.Counts, a.Events, len(b.Grants), b.Counts, b.Events)
			}
		})
	}
}

// TestCrashDropsPrivilegeInFlight: a member that crashes while the token
// is on its way to it never sees it. The PRIVILEGE was sent (and is
// counted as sent), is dropped on arrival — not at send time, when the
// victim was still alive — and counts as Dropped, not Delivered.
func TestCrashDropsPrivilegeInFlight(t *testing.T) {
	var arrived []string
	c, err := New(core.Builder, dagConfig(topology.Star(3), 1),
		WithNetworkOptions(sim.WithObserver(func(d sim.Delivery) { arrived = append(arrived, d.Msg.Kind()) })))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 2) // REQUEST reaches the idle holder at Hop; the PRIVILEGE leaves at once
	c.Clock().AfterFunc(time.Duration(sim.Hop*3/2), func() {
		if sent := c.Counts(); sent.ByKind["PRIVILEGE"] != 1 || sent.Dropped != 0 {
			t.Errorf("before the crash: %+v, want the PRIVILEGE sent and nothing dropped", sent)
		}
		if !c.Crash(2) || c.Crash(2) {
			t.Error("Crash(2) should take effect exactly once")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err) // the victim's outstanding request is not a deadlock
	}
	got := c.Counts()
	if got.Messages != 2 || got.Delivered != 1 || got.Dropped != 1 || c.Entries() != 0 {
		t.Fatalf("%d sent / %d delivered / %d dropped / %d entries, want 2/1/1/0", got.Messages, got.Delivered, got.Dropped, c.Entries())
	}
	if len(arrived) != 1 || arrived[0] != "REQUEST" {
		t.Fatalf("deliveries = %v, want only the REQUEST", arrived)
	}
	if c.Now() != 2*sim.Hop {
		t.Fatalf("run ended at t=%d, want %d: the drop happens when the PRIVILEGE arrives", c.Now(), 2*sim.Hop)
	}
}

// scripted is a protocol that grants every request at once with the next
// fencing generation from its script: the checker's input, by hand.
type scripted struct {
	id   mutex.ID
	env  mutex.Env
	gens []uint64
}

func (s *scripted) ID() mutex.ID { return s.id }
func (s *scripted) Request() error {
	gen := s.gens[0]
	s.gens = s.gens[1:]
	s.env.Granted(gen)
	return nil
}
func (s *scripted) Release() error                        { return nil }
func (s *scripted) Deliver(mutex.ID, mutex.Message) error { return nil }
func (s *scripted) Storage() mutex.Storage                { return mutex.Storage{} }

// TestCheckerIsPerConnectivityComponent drives the shared grant checker
// by hand on a cluster cut into {1, 2} and {3, 4}: fences that are
// monotonic on each side but interleave globally pass, as do holders on
// both sides at once; a fence regression or a second holder on one side
// fails; and a protocol without fencing (generation 0) is exempt from
// the fence rule.
func TestCheckerIsPerConnectivityComponent(t *testing.T) {
	type req struct {
		at   sim.Time
		node mutex.ID
	}
	cases := []struct {
		name    string
		gens    map[mutex.ID][]uint64
		reqs    []req
		wantErr string
	}{
		{name: "interleaved fences across sides",
			gens: map[mutex.ID][]uint64{1: {5}, 2: {6}, 3: {2}, 4: {3}},
			reqs: []req{{10, 1}, {11, 3}, {30, 2}, {31, 4}}}, // 1 and 3, then 2 and 4, hold at once
		{name: "fence regression on one side",
			gens:    map[mutex.ID][]uint64{1: {5}, 2: {6}, 3: {7}, 4: {7}},
			reqs:    []req{{10, 3}, {30, 4}},
			wantErr: "fencing generation 7, not above previous 7"},
		{name: "double holder on one side",
			gens:    map[mutex.ID][]uint64{1: {5}, 2: {6}, 3: {2}, 4: {3}},
			reqs:    []req{{10, 3}, {11, 4}},
			wantErr: "mutual exclusion violated"},
		{name: "no fencing, no fence rule",
			gens: map[mutex.ID][]uint64{1: {0, 0}, 2: {0}, 3: {0}, 4: {0}},
			reqs: []req{{10, 1}, {30, 2}, {31, 3}, {50, 1}, {51, 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(id mutex.ID, env mutex.Env, _ mutex.Config) (mutex.Node, error) {
				return &scripted{id: id, env: env, gens: tc.gens[id]}, nil
			}
			c, err := New(build, mutex.Config{IDs: []mutex.ID{1, 2, 3, 4}}, WithCSTime(10))
			if err != nil {
				t.Fatal(err)
			}
			if side := c.Partition(3, 4); side != 1 || c.Side(3) != 1 || c.Side(2) != 0 {
				t.Fatalf("Partition(3, 4) = %d; Side(3) = %d, Side(2) = %d", side, c.Side(3), c.Side(2))
			}
			for _, r := range tc.reqs {
				c.RequestAt(r.at, r.node)
			}
			err = c.Run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr == "" && c.Entries() != len(tc.reqs):
				t.Fatalf("%d entries, want %d", c.Entries(), len(tc.reqs))
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Run error = %v, want one containing %q", err, tc.wantErr)
			}
			var viol *MutualExclusionError
			if errors.As(err, &viol) && (viol.Holder != 3 || viol.Intruder != 4) {
				t.Fatalf("violation %+v, want holder 3, intruder 4", viol)
			}
		})
	}
}

// TestPartitionMovesTheHoldAndVerdictsReachSurvivors: a member cut off
// while in its critical section keeps its hold on its new side (so the
// main side may grant again), and PeerDownAfter delivers a verdict to a
// live observer only.
func TestPartitionMovesTheHoldAndVerdictsReachSurvivors(t *testing.T) {
	c, err := New(core.Builder, dagConfig(topology.Star(5), 1), WithCSTime(100*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	var told []mutex.ID
	c.RequestAt(0, 1)
	c.Clock().AfterFunc(time.Duration(sim.Hop), func() {
		c.Partition(1) // the holder, mid-section, alone on side 1
		c.Crash(5)
		for _, observer := range []mutex.ID{2, 3, 4, 5} {
			c.PeerDownAfter(sim.Hop, observer, 1)
			c.PeerDownAfter(sim.Hop, observer, 5)
		}
	})
	c.OnGrant(func(g Grant) { told = append(told, g.Node) })
	c.RequestAt(5*sim.Hop, 3)
	if err := c.Run(); err != nil {
		t.Fatal(err) // node 3 entering while node 1 still holds on the other side is legal
	}
	if len(told) != 2 || told[1] != 3 {
		t.Fatalf("grants at %v, want node 1 then — after the survivors regenerated the token — node 3", told)
	}
	if g := c.Grants(); g[0].ExitAt != 100*sim.Hop || g[1].Generation <= g[0].Generation {
		t.Fatalf("grant log %+v: want node 1's section closed at its own exit and a jumped fence for node 3", g)
	}
}

// Command dagtrace replays the thesis's worked examples — Figure 2 (the
// §3.3 simple example) and Figure 6 (the §4.2 complete example) — through
// the real protocol implementation, printing the same step-by-step
// HOLDING / NEXT / FOLLOW tables the thesis prints, plus the implicit
// waiting queue deduced from the FOLLOW chain. With -chaos it instead
// replays a crash scenario the thesis's fail-free model excludes: the
// token holder dies mid-critical-section, and the trace renders every
// failure-subsystem event — suspicion, probe, regeneration,
// reorientation — alongside the state tables, so a recovery is as
// readable as the paper's own examples.
//
// With -live it prints the structured live trace stream instead: the
// same telemetry.TraceEvent lines a production WithTraceObserver
// callback receives, one causal request→forward→privilege→grant chain
// per acquire — the offline replays and the runtime's live telemetry
// share one vocabulary.
//
// Usage:
//
//	dagtrace -fig 6
//	dagtrace -chaos
//	dagtrace -live
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

func main() {
	fig := flag.Int("fig", 6, "figure to replay: 2 or 6")
	chaos := flag.Bool("chaos", false, "replay the crash-recovery scenario instead of a thesis figure")
	live := flag.Bool("live", false, "print the live structured trace stream of a contended run")
	flag.Parse()
	var err error
	switch {
	case *chaos:
		err = chaosDemo(os.Stdout)
	case *live:
		err = liveDemo(os.Stdout)
	default:
		err = run(os.Stdout, *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagtrace:", err)
		os.Exit(1)
	}
}

// replayer drives core nodes synchronously: sends queue up in pending
// and are delivered by hand — one at a time in the exact order the
// thesis narrates (deliverTo), or all of them in FIFO order (drain) —
// with a crash set (messages to or from dead nodes are dropped, as a
// dead process drops them) and the last grant generation per node. The
// three replays differ only in which observers they hand the nodes and
// in what they print between steps.
type replayer struct {
	w       io.Writer
	nodes   []*core.Node // by ID; index 0 unused
	pending []flight
	dead    map[mutex.ID]bool
	grants  map[mutex.ID]uint64
	queue   bool // show prints the implicit waiting queue
	step    int
}

type flight struct {
	from, to mutex.ID
	msg      mutex.Message
}

type env struct {
	r  *replayer
	id mutex.ID
}

func (e env) Send(to mutex.ID, m mutex.Message) {
	e.r.pending = append(e.r.pending, flight{from: e.id, to: to, msg: m})
}

func (e env) Granted(gen uint64) { e.r.grants[e.id] = gen }

func newReplayer(w io.Writer, tree *topology.Tree, holder mutex.ID, opts ...core.Option) (*replayer, error) {
	r := &replayer{
		w:      w,
		nodes:  make([]*core.Node, tree.N()+1),
		dead:   make(map[mutex.ID]bool),
		grants: make(map[mutex.ID]uint64),
	}
	cfg := mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, id := range cfg.IDs {
		n, err := core.New(id, env{r: r, id: id}, cfg, opts...)
		if err != nil {
			return nil, err
		}
		r.nodes[id] = n
	}
	return r, nil
}

// table prints the thesis-style state table.
func (r *replayer) table() []core.Snapshot {
	snaps := make([]core.Snapshot, 0, len(r.nodes)-1)
	for _, n := range r.nodes[1:] {
		snaps = append(snaps, n.Snapshot())
	}
	fmt.Fprint(r.w, stateTable(snaps))
	return snaps
}

// stateTable renders a set of DAG-node snapshots as the thesis prints its
// Figure 6 tables: one column per node, rows HOLDING / NEXT / FOLLOW.
// FOLLOW and NEXT render 0 as blank, matching the thesis's typography.
func stateTable(snaps []core.Snapshot) string {
	var b strings.Builder
	b.WriteString("I        ")
	for _, s := range snaps {
		fmt.Fprintf(&b, "%4d", s.ID)
	}
	b.WriteString("\nHOLDING_I")
	for _, s := range snaps {
		v := "f"
		if s.Holding {
			v = "t"
		}
		fmt.Fprintf(&b, "%4s", v)
	}
	b.WriteString("\nNEXT_I   ")
	for _, s := range snaps {
		fmt.Fprintf(&b, "%4s", idCell(s.Next))
	}
	b.WriteString("\nFOLLOW_I ")
	for _, s := range snaps {
		fmt.Fprintf(&b, "%4s", idCell(s.Follow))
	}
	b.WriteString("\n")
	return b.String()
}

func idCell(id mutex.ID) string {
	if id == mutex.Nil {
		return ""
	}
	return fmt.Sprintf("%d", id)
}

// show prints a step banner, the thesis-style table, the implicit queue
// (figure replays) and a tombstone per crashed node.
func (r *replayer) show(caption string) {
	r.step++
	fmt.Fprintf(r.w, "step %d: %s\n", r.step, caption)
	snaps := r.table()
	if queue, err := core.ImplicitQueue(snaps); r.queue && err == nil && len(queue) > 0 {
		fmt.Fprintf(r.w, "implicit queue (via FOLLOW chain): %v\n", queue)
	}
	for id := range r.nodes {
		if r.dead[mutex.ID(id)] {
			fmt.Fprintf(r.w, "node %d: CRASHED\n", id)
		}
	}
	fmt.Fprintln(r.w)
}

func (r *replayer) request(id mutex.ID) error { return r.nodes[id].Request() }
func (r *replayer) release(id mutex.ID) error { return r.nodes[id].Release() }

// deliverTo delivers the oldest pending message addressed to `to`.
func (r *replayer) deliverTo(to mutex.ID) error {
	for i, f := range r.pending {
		if f.to == to {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return r.nodes[to].Deliver(f.from, f.msg)
		}
	}
	return fmt.Errorf("no pending message for node %d", to)
}

// drain delivers all pending traffic among live nodes in FIFO order —
// the synchronous delivery makes what the observers print the causal
// order; messages touching dead nodes are dropped.
func (r *replayer) drain() error {
	for steps := 0; len(r.pending) > 0; steps++ {
		if steps > 10000 {
			return fmt.Errorf("message storm during replay")
		}
		f := r.pending[0]
		r.pending = r.pending[1:]
		if r.dead[f.to] || r.dead[f.from] {
			continue
		}
		if err := r.nodes[f.to].Deliver(f.from, f.msg); err != nil {
			return fmt.Errorf("deliver %s %d->%d: %w", f.msg.Kind(), f.from, f.to, err)
		}
	}
	return nil
}

// crash kills a node: it falls silent (pending traffic to and from it is
// dropped) and stays in the table as a tombstone.
func (r *replayer) crash(id mutex.ID) {
	r.dead[id] = true
	kept := r.pending[:0]
	for _, f := range r.pending {
		if f.from != id && f.to != id {
			kept = append(kept, f)
		}
	}
	r.pending = kept
}

func run(w io.Writer, fig int) error {
	switch fig {
	case 2:
		return figure2(w)
	case 6:
		return figure6(w)
	default:
		return fmt.Errorf("unknown figure %d (want 2 or 6)", fig)
	}
}

// figure2 replays the §3.3 simple example on the six-node line.
func figure2(w io.Writer) error {
	fmt.Fprintln(w, "Thesis Figure 2: simple example on the line 1-2-3-4-5-6, token at node 5")
	fmt.Fprintln(w)
	tree, holder := topology.Figure2()
	r, err := newReplayer(w, tree, holder)
	if err != nil {
		return err
	}
	r.queue = true
	r.show("initial configuration (Figure 2a)")

	steps := []step{
		{"node 5 enters its critical section", func() error { return r.request(5) }},
		{"node 3 requests: REQUEST(3,3) to node 4, NEXT_3 = 0 (Figure 2b)", func() error { return r.request(3) }},
		{"node 4 forwards REQUEST(4,3) to node 5, NEXT_4 = 3 (Figure 2c)", func() error { return r.deliverTo(4) }},
		{"node 5 saves the request: FOLLOW_5 = 3, NEXT_5 = 4 (Figure 2d)", func() error { return r.deliverTo(5) }},
		{"node 5 leaves its CS and sends PRIVILEGE to node 3", func() error { return r.release(5) }},
		{"node 3 receives the PRIVILEGE and enters its CS (Figure 2e)", func() error { return r.deliverTo(3) }},
	}
	return r.play(steps)
}

// figure6 replays the §4.2 complete example, steps 1-13.
func figure6(w io.Writer) error {
	fmt.Fprintln(w, "Thesis Figure 6: complete example, token at node 3")
	fmt.Fprintln(w)
	tree, holder := topology.Figure6()
	r, err := newReplayer(w, tree, holder)
	if err != nil {
		return err
	}
	r.queue = true
	r.show("initial configuration (Figure 6a)")

	steps := []step{
		{"node 3 enters its critical section (Figure 6b)", func() error { return r.request(3) }},
		{"node 2 requests: REQUEST(2,2) to node 3, NEXT_2 = 0", func() error { return r.request(2) }},
		{"node 3 saves it: FOLLOW_3 = 2, NEXT_3 = 2 (Figure 6c)", func() error { return r.deliverTo(3) }},
		{"node 1 requests: REQUEST(1,1) to node 2, NEXT_1 = 0", func() error { return r.request(1) }},
		{"node 5 requests: REQUEST(5,5) to node 2, NEXT_5 = 0 (Figure 6d)", func() error { return r.request(5) }},
		{"node 2 saves node 1's request: FOLLOW_2 = 1, NEXT_2 = 1 (Figure 6e)", func() error { return r.deliverTo(2) }},
		{"node 2 forwards node 5's request to node 1, NEXT_2 = 5 (Figure 6f)", func() error { return r.deliverTo(2) }},
		{"node 1 saves it: FOLLOW_1 = 5, NEXT_1 = 2 (Figure 6g; queue is 2,1,5)", func() error { return r.deliverTo(1) }},
		{"node 3 leaves its CS, PRIVILEGE to node 2 (Figure 6h)", func() error { return r.release(3) }},
		{"node 2 enters its CS", func() error { return r.deliverTo(2) }},
		{"node 2 leaves, PRIVILEGE to node 1 (Figure 6i)", func() error { return r.release(2) }},
		{"node 1 enters its CS", func() error { return r.deliverTo(1) }},
		{"node 1 leaves, PRIVILEGE to node 5 (Figure 6j)", func() error { return r.release(1) }},
		{"node 5 enters its CS", func() error { return r.deliverTo(5) }},
		{"node 5 leaves and keeps the token: HOLDING_5 = true (Figure 6k)", func() error { return r.release(5) }},
	}
	return r.play(steps)
}

// step is one narrated action of a replay.
type step struct {
	caption string
	action  func() error
}

func (r *replayer) play(steps []step) error {
	for _, s := range steps {
		if err := s.action(); err != nil {
			return fmt.Errorf("%s: %w", s.caption, err)
		}
		r.show(s.caption)
	}
	return nil
}

package core

import (
	"fmt"
	"slices"

	"dagmutex/internal/mutex"
)

// World is a hand-driven host for bare nodes: no goroutine, link or
// clock, only a pending list that every send joins, in send order, and
// that the caller empties one message at a time — in the exact order a
// narration dictates (DeliverTo, DeliverLink) or in send order (Drain).
// It carries REQUEST and PRIVILEGE by value, as the runtime and the
// simulator do; control messages travel boxed. A crashed node falls
// silent: traffic to and from it is dropped. World is what replays the
// thesis's figures step by step (cmd/dagtrace), what core's own tests
// drive, and what its exhaustive check explores.
type World struct {
	Nodes   []*Node  // by ID; index 0 unused
	Grants  []Grant  // by ID
	Pending []Flight // sent and not yet delivered, in send order
	dead    []bool   // by ID
}

// Flight is one message on its way. A REQUEST or PRIVILEGE travels by
// value in Msg; any other message travels in Boxed, with Msg's kind
// MsgNone.
type Flight struct {
	From, To mutex.ID
	Msg      Msg
	Boxed    mutex.Message
}

// Message returns f's message as the boxed route would carry it.
func (f Flight) Message() mutex.Message {
	if f.Msg.Kind != MsgNone {
		return f.Msg.Boxed()
	}
	return f.Boxed
}

func (f Flight) String() string {
	return fmt.Sprintf("%s %d->%d", f.Message().Kind(), f.From, f.To)
}

// Grant is what a World records of one node's grants.
type Grant struct {
	Count int
	Gen   uint64 // the last grant's fencing generation
	Hops  int    // the request path length behind the last grant
}

// worldEnv is one node's Env: by value for the hot messages, with hop
// accounting.
type worldEnv struct {
	w  *World
	id mutex.ID
}

func (e worldEnv) Send(to mutex.ID, m mutex.Message) {
	e.w.Pending = append(e.w.Pending, Flight{From: e.id, To: to, Boxed: m})
}

func (e worldEnv) SendMsg(to mutex.ID, m Msg) {
	e.w.Pending = append(e.w.Pending, Flight{From: e.id, To: to, Msg: m})
}

func (e worldEnv) Granted(gen uint64) { e.GrantedHops(gen, 0) }

func (e worldEnv) GrantedHops(gen uint64, hops int) {
	g := &e.w.Grants[e.id]
	g.Count, g.Gen, g.Hops = g.Count+1, gen, hops
}

// NewWorld builds one node per member of cfg, each with opts.
func NewWorld(cfg mutex.Config, opts ...Option) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := int(slices.Max(cfg.IDs)) + 1
	w := &World{Nodes: make([]*Node, size), Grants: make([]Grant, size), dead: make([]bool, size)}
	for _, id := range cfg.IDs {
		n, err := New(id, worldEnv{w, id}, cfg, opts...)
		if err != nil {
			return nil, err
		}
		w.Nodes[id] = n
	}
	return w, nil
}

// Snapshots returns every node's snapshot, in ID order.
func (w *World) Snapshots() []Snapshot {
	var snaps []Snapshot
	for _, n := range w.Nodes {
		if n != nil {
			snaps = append(snaps, n.Snapshot())
		}
	}
	return snaps
}

// DeliverTo delivers the oldest message pending for to. Sends on one
// link join the list in order, so that keeps every link FIFO.
func (w *World) DeliverTo(to mutex.ID) (Flight, error) {
	i := slices.IndexFunc(w.Pending, func(f Flight) bool { return f.To == to })
	if i < 0 {
		return Flight{}, fmt.Errorf("no message pending for node %d (pending %v)", to, w.Pending)
	}
	return w.take(i)
}

// DeliverLink delivers the oldest message pending from from to to.
func (w *World) DeliverLink(from, to mutex.ID) (Flight, error) {
	i := slices.IndexFunc(w.Pending, func(f Flight) bool { return f.From == from && f.To == to })
	if i < 0 {
		return Flight{}, fmt.Errorf("no message pending from node %d to node %d", from, to)
	}
	return w.take(i)
}

func (w *World) take(i int) (Flight, error) {
	f := w.Pending[i]
	w.Pending = slices.Delete(w.Pending, i, i+1)
	return f, w.deliver(f)
}

// member reports whether id is one of w's nodes.
func (w *World) member(id mutex.ID) bool {
	return id > 0 && int(id) < len(w.Nodes) && w.Nodes[id] != nil
}

func (w *World) deliver(f Flight) error {
	var err error
	switch {
	case !w.member(f.From) || !w.member(f.To):
		err = fmt.Errorf("not between two nodes")
	case f.Msg.Kind != MsgNone:
		err = w.Nodes[f.To].DeliverMsg(f.From, f.Msg)
	default:
		err = w.Nodes[f.To].Deliver(f.From, f.Boxed)
	}
	if err != nil {
		return fmt.Errorf("deliver %v: %w", f, err)
	}
	return nil
}

// Drain delivers everything pending, and whatever that sends, in send
// order, dropping what a crashed node sent or would receive. Delivering
// one message at a time makes what observers print the causal order. A
// run past 10 000 messages is reported as a protocol loop.
func (w *World) Drain() error {
	for steps := 0; len(w.Pending) > 0; steps++ {
		if steps > 10000 {
			return fmt.Errorf("message storm (protocol loop?)")
		}
		f := w.Pending[0]
		w.Pending = w.Pending[1:]
		if w.Crashed(f.From) || w.Crashed(f.To) {
			continue
		}
		if err := w.deliver(f); err != nil {
			return err
		}
	}
	return nil
}

// Crash kills id: it falls silent, and the traffic pending to and from
// it is dropped.
func (w *World) Crash(id mutex.ID) error {
	if !w.member(id) {
		return fmt.Errorf("crash: no node %d", id)
	}
	w.dead[id] = true
	w.Pending = slices.DeleteFunc(w.Pending, func(f Flight) bool { return f.From == id || f.To == id })
	return nil
}

// Crashed reports whether id is a node that has crashed.
func (w *World) Crashed(id mutex.ID) bool { return w.member(id) && w.dead[id] }

// Suspect reports down as crashed (PeerDown) at each node of at, or,
// with at empty, at every live node but down, as their failure
// detectors would.
func (w *World) Suspect(down mutex.ID, at ...mutex.ID) error {
	if len(at) == 0 {
		for id, n := range w.Nodes {
			if n != nil && !w.dead[id] && mutex.ID(id) != down {
				at = append(at, mutex.ID(id))
			}
		}
	}
	for _, id := range at {
		if !w.member(id) {
			return fmt.Errorf("PeerDown(%d): no node %d", down, id)
		} else if err := w.Nodes[id].PeerDown(down); err != nil {
			return fmt.Errorf("PeerDown(%d) at node %d: %w", down, id, err)
		}
	}
	return nil
}

package transport

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/vclock"
)

// Session is the blocking application API over one live node, provided
// by the shared runtime and identical over every link layer.
type Session = runtime.Session

// Local runs one protocol node per cluster member inside a single
// process, connected by mailboxes. It is purely a link layer: the actor
// loops, grant signaling and error capture all live in the shared runtime
// (internal/runtime), and the integration tests run real concurrent
// workloads on it (with -race).
//
// With WithFailureDetection the cluster also runs one failure detector
// per member (heartbeats over the same mailboxes), feeding per-peer down
// and up verdicts into the protocol's membership handler; with
// WithInjector (or by default, via Kill) a fault plan decides which
// messages are dropped, emulating crashes, severed links and partitions
// inside one process.
type Local struct {
	net   *localNet
	nodes map[mutex.ID]*runtime.Node
	sink  *runtime.ErrorSink
	dets  map[mutex.ID]*failure.Detector

	stopOnce sync.Once
}

// localNet is the in-process substrate: one mailbox per member, the
// cluster-wide message counter and the fault plan.
type localNet struct {
	boxes map[mutex.ID]*mailbox[runtime.Envelope]
	msgs  atomic.Int64
	inj   *failure.Injector
}

// send routes one envelope — boxed or by value, the mailbox moves either
// as is — through the fault plan into the destination mailbox. count
// separates protocol traffic (tallied in Messages) from detector
// heartbeats (not tallied, so fail-free accounting is unchanged by
// enabling detection). A message is tallied before it is queued: once
// queued, the receiver may act on it, and a caller see the effect (a
// grant) and read Messages, before this goroutine runs again.
func (net *localNet) send(to mutex.ID, e runtime.Envelope, count bool) error {
	dst, ok := net.boxes[to]
	if !ok {
		return fmt.Errorf("unknown node %d", to)
	}
	if !net.inj.Allow(e.From, to) {
		return nil // injected loss: the message vanishes, like the link it models
	}
	if count {
		net.msgs.Add(1)
	}
	if !dst.put(e) && count {
		net.msgs.Add(-1) // the destination has closed: nothing was sent
	}
	return nil
}

// localLink is one member's attachment to the substrate.
type localLink struct {
	id  mutex.ID
	net *localNet
}

// Send enqueues into the destination mailbox. A single mailbox per
// receiver, filled in program order per sender, yields per-link FIFO. A
// send to an unknown node is an error captured through the runtime's
// deliver-error path (it fails the cluster, not the process).
func (l localLink) Send(to mutex.ID, m mutex.Message) error {
	return l.net.send(to, runtime.Envelope{From: l.id, Msg: m}, true)
}

// SendMsg implements runtime.MsgLink: the same enqueue with the message
// riding the envelope by value.
func (l localLink) SendMsg(to mutex.ID, m core.Msg) error {
	return l.net.send(to, runtime.Envelope{From: l.id, Val: m}, true)
}

// Recv blocks on the member's own mailbox.
func (l localLink) Recv() (runtime.Envelope, bool) {
	return l.net.boxes[l.id].get()
}

// Close closes the member's mailbox; queued envelopes still drain.
func (l localLink) Close() { l.net.boxes[l.id].close() }

// LocalOption configures a Local cluster.
type LocalOption func(*localOptions)

type localOptions struct {
	inj  *failure.Injector
	fcfg *failure.Config
	clk  vclock.Clock
}

// WithInjector installs a shared fault plan: every send consults it, so
// tests and the chaos battery can crash nodes, sever links and partition
// deterministically. Without it, Kill lazily installs a
// private injector.
func WithInjector(inj *failure.Injector) LocalOption {
	return func(o *localOptions) { o.inj = inj }
}

// WithFailureDetection runs one heartbeat failure detector per member:
// silence (or injected loss) beyond cfg.SuspectAfter becomes a per-peer
// down verdict delivered to the protocol's membership handler — for the
// DAG algorithm, the trigger for DAG repair and token regeneration.
// Protocols without a membership handler escalate the verdict to the
// cluster's error sink instead (a dead peer is unrecoverable for them).
func WithFailureDetection(cfg failure.Config) LocalOption {
	return func(o *localOptions) { o.fcfg = &cfg }
}

// WithClock runs the whole cluster — grant timestamps, proxy leases,
// failure-detector ticks — on c instead of the real clock. The simulation harness installs a vclock.Virtual here so
// simulated hours of heartbeats and leases pass under test control. A
// detector config with its own Clock set keeps it.
func WithClock(c vclock.Clock) LocalOption {
	return func(o *localOptions) { o.clk = c }
}

// NewLocal builds and starts one node per cfg.IDs entry. Callers must
// Close the runtime to stop its goroutines.
func NewLocal(b mutex.Builder, cfg mutex.Config, opts ...LocalOption) (*Local, error) {
	var o localOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.inj == nil {
		o.inj = failure.NewInjector()
	}
	o.clk = vclock.Or(o.clk)
	l := &Local{
		net: &localNet{
			boxes: make(map[mutex.ID]*mailbox[runtime.Envelope], len(cfg.IDs)),
			inj:   o.inj,
		},
		nodes: make(map[mutex.ID]*runtime.Node, len(cfg.IDs)),
		dets:  make(map[mutex.ID]*failure.Detector),
		sink:  runtime.NewErrorSink(),
	}
	// All mailboxes exist before any node starts, so builders and early
	// handlers can send to members whose actor loop is not yet running.
	for _, id := range cfg.IDs {
		l.net.boxes[id] = newMailbox[runtime.Envelope]()
	}
	for _, id := range cfg.IDs {
		n, err := runtime.Start(id, b, cfg, localLink{id: id, net: l.net}, l.sink, runtime.WithClock(o.clk))
		if err != nil {
			l.Close()
			return nil, err
		}
		l.nodes[id] = n
	}
	if o.fcfg != nil {
		if o.fcfg.Clock == nil {
			o.fcfg.Clock = o.clk
		}
		for id, n := range l.nodes {
			node := n
			hbSend := func(to mutex.ID, m mutex.Message) error {
				return l.net.send(to, runtime.Envelope{From: id, Msg: m}, false)
			}
			det := failure.NewDetector(id, cfg.IDs, hbSend, *o.fcfg)
			det.OnDown(func(p mutex.ID) {
				if err := node.PeerDown(p); err != nil {
					l.sink.Fail(err)
				}
			})
			det.OnUp(func(p mutex.ID) {
				if err := node.PeerUp(p); err != nil {
					l.sink.Fail(err)
				}
			})
			node.SetMonitor(det)
			l.dets[id] = det
		}
		for _, det := range l.dets {
			det.Start()
		}
	}
	return l, nil
}

// Injector returns the cluster's fault plan, for tests and batteries to
// crash, sever, partition and heal.
func (l *Local) Injector() *failure.Injector { return l.net.inj }

// Kill crashes member id: its traffic is dropped from now on (the fault
// plan marks it crashed), its detector stops heartbeating, its mailbox
// closes, and its own session fails fast with runtime.ErrNodeDown. Peers
// notice through their failure detectors — there is no goodbye message,
// exactly like a killed process.
func (l *Local) Kill(id mutex.ID) error {
	n, ok := l.nodes[id]
	if !ok {
		return fmt.Errorf("transport: unknown node %d", id)
	}
	l.net.inj.Crash(id)
	n.MarkSelfDown()
	if det := l.dets[id]; det != nil {
		det.Stop()
	}
	l.net.boxes[id].close()
	return nil
}

// WithNode runs fn on the protocol node with the given id while holding
// its handler lock, for management operations such as the DAG algorithm's
// StartInit. fn must not block on protocol progress.
func (l *Local) WithNode(id mutex.ID, fn func(mutex.Node) error) error {
	n, ok := l.nodes[id]
	if !ok {
		return fmt.Errorf("transport: unknown node %d", id)
	}
	return n.With(fn)
}

// Session returns the application-facing session for node id, or nil if
// the id is unknown.
func (l *Local) Session(id mutex.ID) *Session {
	n, ok := l.nodes[id]
	if !ok {
		return nil
	}
	return n.Session()
}

// Messages returns the total number of protocol messages sent so far
// (detector heartbeats are not counted).
func (l *Local) Messages() int64 { return l.net.msgs.Load() }

// Err returns the first protocol-level delivery error, if any occurred.
func (l *Local) Err() error { return l.sink.Err() }

// Close stops all actor loops and waits for them to exit. Pending mailbox
// messages are still delivered first.
func (l *Local) Close() {
	l.stopOnce.Do(func() {
		// Detectors first: no verdicts may fire into closing nodes.
		for _, det := range l.dets {
			det.Stop()
		}
		// Deterministic order keeps shutdown reproducible under -race.
		ids := make([]mutex.ID, 0, len(l.nodes))
		for id := range l.nodes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			l.nodes[id].Close()
		}
	})
}

// Package failure is the failure-handling subsystem the paper's
// fail-free model lacks: a heartbeat-based failure detector that turns
// silence into per-peer down events, and a deterministic fault injector
// that transports consult to emulate crashes, severed links and
// partitions.
//
// The detector is substrate-agnostic: it sends Heartbeat messages
// through whatever send function the link layer provides, observes every
// inbound message as evidence of life (it implements the runtime's
// Monitor hook), and accepts out-of-band evidence — a TCP connection
// reset — through MarkDown. Down and up verdicts are delivered through
// callbacks, which the transport glue routes into the protocol's
// mutex.MembershipHandler (the DAG algorithm's recovery) and the
// runtime's membership events.
//
// The usual trade-off applies: the detector is eventually perfect at
// best. A slow or partitioned peer is indistinguishable from a dead one,
// so false suspicion is possible and the protocol layer must tolerate it
// (the DAG recovery fences the falsely-suspected side and re-admits it
// on heal).
package failure

import (
	"sync"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// Heartbeat is the detector's liveness message. It carries nothing: its
// arrival is the information.
type Heartbeat struct{}

// Kind implements mutex.Message.
func (Heartbeat) Kind() string { return "HEARTBEAT" }

// Size implements mutex.Message.
func (Heartbeat) Size() int { return 0 }

// Config parameterizes a Detector.
type Config struct {
	// Heartbeat is the send interval. Default 25ms.
	Heartbeat time.Duration
	// SuspectAfter is how long a peer may stay silent before it is
	// declared down. Default 8× Heartbeat. It must comfortably exceed the
	// heartbeat interval plus worst-case scheduling jitter; too tight a
	// bound turns load into false suspicion.
	SuspectAfter time.Duration
	// Clock is the time source the detector ticks and timestamps on. Nil
	// means the real clock; tests and the simulation harness install a
	// vclock.Virtual so heartbeat intervals and suspicion timeouts pass
	// in virtual time instead of wall-clock sleeps.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 25 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 8 * c.Heartbeat
	}
	c.Clock = vclock.Or(c.Clock)
	return c
}

// SendFunc transmits a detector message to a peer. Errors are ignored —
// an unreachable peer is exactly what the detector exists to notice.
type SendFunc func(to mutex.ID, m mutex.Message) error

// Detector watches one node's peers. It heartbeats all of them (down
// peers included, so a healed peer is noticed), treats any inbound
// message as proof of life, and fires OnDown / OnUp verdicts at state
// changes. All methods are safe for concurrent use; callbacks run
// without the detector lock, one at a time.
type Detector struct {
	id    mutex.ID
	peers []mutex.ID
	send  SendFunc
	cfg   Config

	mu       sync.Mutex
	lastSeen map[mutex.ID]time.Time
	down     map[mutex.ID]bool
	onDown   func(mutex.ID)
	onUp     func(mutex.ID)
	started  bool
	stopTick func() // withdraws the heartbeat tick chain; nil before Start

	stop     chan struct{}
	stopOnce sync.Once

	// verdictMu serializes callback invocations, so a protocol sees
	// down/up transitions for one peer in order.
	verdictMu sync.Mutex
}

// NewDetector builds a detector for node id watching peers (id itself is
// skipped if present). Register callbacks with OnDown/OnUp, then Start.
func NewDetector(id mutex.ID, peers []mutex.ID, send SendFunc, cfg Config) *Detector {
	d := &Detector{
		id:       id,
		send:     send,
		cfg:      cfg.withDefaults(),
		lastSeen: make(map[mutex.ID]time.Time),
		down:     make(map[mutex.ID]bool),
		stop:     make(chan struct{}),
	}
	for _, p := range peers {
		if p != id {
			d.peers = append(d.peers, p)
		}
	}
	return d
}

// OnDown registers the down-verdict callback. It must be set before
// Start.
func (d *Detector) OnDown(fn func(peer mutex.ID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onDown = fn
}

// OnUp registers the up-verdict callback (a down peer was heard again).
// It must be set before Start.
func (d *Detector) OnUp(fn func(peer mutex.ID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onUp = fn
}

// Start begins heartbeating and watching. Every peer starts with a full
// grace period.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	now := d.cfg.Clock.Now()
	for _, p := range d.peers {
		d.lastSeen[p] = now
	}
	// A tick chain, not a ticker goroutine: on a virtual clock the ticks
	// run deterministically on the advancing goroutine.
	d.stopTick = vclock.Every(d.cfg.Clock, d.cfg.Heartbeat, d.tick)
	d.mu.Unlock()
}

// Stop halts heartbeats and suspicion; no callbacks fire after it
// returns.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.mu.Lock()
	if d.stopTick != nil {
		d.stopTick()
	}
	d.mu.Unlock()
	// Flush an in-flight verdict: once we hold verdictMu, any callback
	// that had already passed the stop check has returned, and the stop
	// check turns away every later one.
	d.verdictMu.Lock()
	//lint:ignore SA2001 barrier: the hold itself is the synchronization
	d.verdictMu.Unlock()
}

// tick is one heartbeat round: send to every peer, check for silence.
func (d *Detector) tick() {
	select {
	case <-d.stop:
		return
	default:
	}
	// Heartbeat everyone — down peers too, so a heal is detected.
	for _, p := range d.peers {
		_ = d.send(p, Heartbeat{})
	}
	d.check(d.cfg.Clock.Now())
}

func (d *Detector) check(now time.Time) {
	var newlyDown []mutex.ID
	d.mu.Lock()
	for _, p := range d.peers {
		if d.down[p] {
			continue
		}
		if now.Sub(d.lastSeen[p]) > d.cfg.SuspectAfter {
			d.down[p] = true
			newlyDown = append(newlyDown, p)
		}
	}
	onDown := d.onDown
	d.mu.Unlock()
	for _, p := range newlyDown {
		d.verdict(onDown, p)
	}
}

func (d *Detector) verdict(fn func(mutex.ID), peer mutex.ID) {
	if fn == nil {
		return
	}
	select {
	case <-d.stop:
		return
	default:
	}
	d.verdictMu.Lock()
	defer d.verdictMu.Unlock()
	fn(peer)
}

// Inbound observes one inbound message as evidence the sender is alive,
// reviving a down peer if needed. It reports whether the message was the
// detector's own (a Heartbeat) and is therefore consumed — the runtime's
// Monitor contract.
func (d *Detector) Inbound(from mutex.ID, m mutex.Message) bool {
	_, hb := m.(Heartbeat)
	d.mu.Lock()
	if _, watched := d.lastSeen[from]; !watched && from != d.id {
		// Not a configured peer (e.g. Monitor installed without peers):
		// nothing to track, but still consume heartbeats.
		d.mu.Unlock()
		return hb
	}
	d.lastSeen[from] = d.cfg.Clock.Now()
	revived := d.down[from]
	if revived {
		delete(d.down, from)
	}
	onUp := d.onUp
	d.mu.Unlock()
	if revived {
		d.verdict(onUp, from)
	}
	return hb
}

// MarkDown records out-of-band death evidence (a connection reset, an
// operator's word) and fires the down verdict immediately, without
// waiting out the suspicion timeout.
func (d *Detector) MarkDown(peer mutex.ID) {
	d.mu.Lock()
	if _, watched := d.lastSeen[peer]; !watched || d.down[peer] {
		d.mu.Unlock()
		return
	}
	d.down[peer] = true
	// Age the peer out so a lone stale timestamp cannot flap it back.
	d.lastSeen[peer] = d.cfg.Clock.Now().Add(-d.cfg.SuspectAfter)
	onDown := d.onDown
	d.mu.Unlock()
	d.verdict(onDown, peer)
}

// Down returns the peers currently considered down, ascending.
func (d *Detector) Down() []mutex.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []mutex.ID
	for _, p := range d.peers {
		if d.down[p] {
			out = append(out, p)
		}
	}
	return out
}

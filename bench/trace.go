package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/transport"
)

// The traced pass measures every layer from outside, at the seams the
// stack already has: a lockservice.Transport that decorates the
// mutex.Builder it is handed (so every core node and every mutex.Env is a
// timing shim), and a transport.ClientBackend that times the member-side
// end of a dialed request. Nothing inside the program is touched.

// protocolNode is everything the runtime may ask of a protocol node. The
// shim forwards all of it: dropping one capability would silently switch
// the runtime to its fallback path (no fused release, no cohort regrant)
// and the traced pass would measure a different program.
type protocolNode interface {
	mutex.Node
	mutex.TryRequester
	mutex.ReleaseRequester
	mutex.Regranter
	mutex.Reorienter
	mutex.MembershipHandler
}

// Span stamps, per (shard, fence), written by the shims.
const (
	evGranted     uint8 = iota + 1 // Env.Granted(fence) reached the runtime
	evRelCore                      // the protocol release of the hold under fence began
	evRelCoreEnd                   // ... and returned
	evPrivSend                     // the PRIVILEGE carrying fence was handed to Env.Send
	evPrivDeliver                  // ... and reached the successor's Deliver
)

type event struct {
	kind  uint8
	fence uint64
	ts    int64
}

// tracer owns one traced cluster's shims and clock. Stamps are
// nanoseconds since start, on the monotonic clock.
type tracer struct {
	start time.Time
	// on gates recording to the measured window; the FIFO matcher runs
	// regardless so sends and deliveries stay paired.
	on atomic.Bool

	mu    sync.Mutex
	nodes []*nodeShim
	links map[linkKey]*linkQueue
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), links: make(map[linkKey]*linkQueue)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

// tracedTransport is the wrapping lockservice.Transport.
type tracedTransport struct {
	lockservice.Transport
	tr *tracer
}

// StartShard implements lockservice.Transport, decorating the builder.
func (t tracedTransport) StartShard(index int, b mutex.Builder, cfg mutex.Config) (lockservice.Cluster, error) {
	return t.Transport.StartShard(index, t.tr.wrap(index, b), cfg)
}

// wrap decorates b so the node it builds, and the env that node talks to,
// are timing shims.
func (t *tracer) wrap(shard int, b mutex.Builder) mutex.Builder {
	return func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		ns := &nodeShim{tr: t, shard: shard, id: id,
			in: make(map[mutex.ID]*linkQueue), out: make(map[mutex.ID]*linkQueue)}
		es := &envShim{node: ns, inner: env}
		es.hop, _ = env.(mutex.HopGranter)
		inner, err := b(id, es, cfg)
		if err != nil {
			return nil, err
		}
		full, ok := inner.(protocolNode)
		if !ok {
			return nil, fmt.Errorf("bench: %T lacks a capability the node shim forwards", inner)
		}
		ns.inner = full
		t.mu.Lock()
		t.nodes = append(t.nodes, ns)
		t.mu.Unlock()
		return ns, nil
	}
}

type linkKey struct {
	shard    int
	from, to mutex.ID
}

func (t *tracer) link(k linkKey) *linkQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.links[k]
	if q == nil {
		q = &linkQueue{}
		t.links[k] = q
	}
	return q
}

// linkQueue matches one directed link's sends to its deliveries. The
// paper's channel model (and both link layers) deliver FIFO per
// (sender, receiver), so the n-th Deliver from a peer is the n-th Send to
// it, and the difference of their stamps is the transit time.
type linkQueue struct {
	mu       sync.Mutex
	sent     []int64
	head     int
	transits []int64
}

func (q *linkQueue) send(ts int64) {
	q.mu.Lock()
	if q.head > 1024 && q.head*2 > len(q.sent) {
		q.sent = append(q.sent[:0], q.sent[q.head:]...)
		q.head = 0
	}
	q.sent = append(q.sent, ts)
	q.mu.Unlock()
}

// deliver pops the oldest unmatched send and returns its transit time;
// ok is false when nothing is in flight (a delivery the shims never saw
// sent). The transit is kept as a sample only when record is set.
func (q *linkQueue) deliver(now int64, record bool) (transit int64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.sent) {
		return 0, false
	}
	transit = now - q.sent[q.head]
	q.head++
	if record {
		q.transits = append(q.transits, transit)
	}
	return transit, true
}

// nodeShim times one core node. Every method below runs under the
// runtime's per-node handler lock (as the mutex.Node contract says), so
// the plain fields need no further synchronisation; they are read after
// the cluster is closed.
type nodeShim struct {
	inner protocolNode
	tr    *tracer
	shard int
	id    mutex.ID

	envNs int64  // time the current call spent inside Env calls
	fence uint64 // the generation of this node's latest grant
	log   []event
	in    map[mutex.ID]*linkQueue
	out   map[mutex.ID]*linkQueue

	calls, busyNs         int64
	sends, grants, hops   int64
	regrants, fused, rels int64
	unmatched             int64
}

var _ protocolNode = (*nodeShim)(nil)

func (n *nodeShim) stamp(kind uint8, fence uint64, ts int64) {
	if n.tr.on.Load() {
		n.log = append(n.log, event{kind: kind, fence: fence, ts: ts})
	}
}

func (n *nodeShim) enter() int64 {
	n.envNs = 0
	return n.tr.now()
}

// leave books the call's self time: its duration minus what it spent in
// the Env (sending, depositing the grant), which belongs to other layers.
func (n *nodeShim) leave(t0 int64) int64 {
	t1 := n.tr.now()
	if n.tr.on.Load() {
		n.calls++
		n.busyNs += t1 - t0 - n.envNs
	}
	return t1
}

func (n *nodeShim) ID() mutex.ID           { return n.id }
func (n *nodeShim) Storage() mutex.Storage { return n.inner.Storage() }

func (n *nodeShim) Request() error {
	t0 := n.enter()
	err := n.inner.Request()
	n.leave(t0)
	return err
}

func (n *nodeShim) TryRequest() (bool, error) {
	t0 := n.enter()
	ok, err := n.inner.TryRequest()
	n.leave(t0)
	return ok, err
}

// relBegin and relEnd bracket the three ways a hold ends at the protocol
// layer, stamping the span of the hold being given up.
func (n *nodeShim) relBegin() (held uint64, t0 int64) {
	t0 = n.enter()
	n.stamp(evRelCore, n.fence, t0)
	return n.fence, t0
}

func (n *nodeShim) relEnd(held uint64, t0 int64) {
	n.stamp(evRelCoreEnd, held, n.leave(t0))
	if n.tr.on.Load() {
		n.rels++
	}
}

func (n *nodeShim) Release() error {
	held, t0 := n.relBegin()
	err := n.inner.Release()
	n.relEnd(held, t0)
	return err
}

func (n *nodeShim) ReleaseRequest() error {
	held, t0 := n.relBegin()
	err := n.inner.ReleaseRequest()
	n.relEnd(held, t0)
	return err
}

func (n *nodeShim) Regrant() (bool, error) {
	held, t0 := n.relBegin()
	ok, err := n.inner.Regrant()
	n.relEnd(held, t0)
	if ok && n.tr.on.Load() {
		n.regrants++
	}
	return ok, err
}

func (n *nodeShim) Deliver(from mutex.ID, m mutex.Message) error {
	t0 := n.enter()
	q := n.in[from]
	if q == nil {
		q = n.tr.link(linkKey{n.shard, from, n.id})
		n.in[from] = q
	}
	if _, ok := q.deliver(t0, n.tr.on.Load()); !ok {
		n.unmatched++
	}
	if p, ok := m.(core.Privilege); ok {
		n.stamp(evPrivDeliver, p.Generation, t0)
	}
	err := n.inner.Deliver(from, m)
	n.leave(t0)
	return err
}

func (n *nodeShim) PlanReorient(hot mutex.ID) (bool, error) {
	t0 := n.enter()
	ok, err := n.inner.PlanReorient(hot)
	n.leave(t0)
	return ok, err
}

func (n *nodeShim) PeerDown(dead mutex.ID) error {
	t0 := n.enter()
	err := n.inner.PeerDown(dead)
	n.leave(t0)
	return err
}

func (n *nodeShim) PeerUp(peer mutex.ID) error {
	t0 := n.enter()
	err := n.inner.PeerUp(peer)
	n.leave(t0)
	return err
}

// envShim times the node's calls out into the world. It runs inside the
// node's handler calls, so it shares the node shim's fields.
type envShim struct {
	node  *nodeShim
	inner mutex.Env
	hop   mutex.HopGranter // inner's hop-aware grant path, when it has one
}

var _ mutex.HopGranter = (*envShim)(nil)

func (e *envShim) Send(to mutex.ID, m mutex.Message) {
	n := e.node
	t0 := n.tr.now()
	q := n.out[to]
	if q == nil {
		q = n.tr.link(linkKey{n.shard, n.id, to})
		n.out[to] = q
	}
	q.send(t0)
	if p, ok := m.(core.Privilege); ok {
		n.stamp(evPrivSend, p.Generation, t0)
		if p.Requesting && n.tr.on.Load() {
			n.fused++
		}
	}
	if n.tr.on.Load() {
		n.sends++
	}
	e.inner.Send(to, m)
	n.envNs += n.tr.now() - t0
}

func (e *envShim) Granted(gen uint64) { e.GrantedHops(gen, 0) }

func (e *envShim) GrantedHops(gen uint64, hops int) {
	n := e.node
	t0 := n.tr.now()
	n.fence = gen
	n.stamp(evGranted, gen, t0)
	if n.tr.on.Load() {
		n.grants++
		n.hops += int64(hops)
	}
	if e.hop != nil {
		e.hop.GrantedHops(gen, hops)
	} else {
		e.inner.Granted(gen)
	}
	n.envNs += n.tr.now() - t0
}

// timedBackend is the member-side end of a dialed request: it stamps the
// backend's own view of each acquire and release so the client hop is the
// caller-observed time minus this.
type timedBackend struct {
	inner  transport.ClientBackend
	tr     *tracer
	shards int

	mu   sync.Mutex
	acqs []backendAcq
	rels []backendRel
}

type backendAcq struct {
	key       fenceKey
	call, ret int64
}

type backendRel struct {
	key  fenceKey
	call int64
}

func (b *timedBackend) key(resource string, fence uint64) fenceKey {
	return fenceKey{shard: int32(lockservice.KeyShard(resource, b.shards)), fence: fence}
}

func (b *timedBackend) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	t0 := b.tr.now()
	fence, exp, err := b.inner.Acquire(ctx, resource)
	t1 := b.tr.now()
	if err == nil && b.tr.on.Load() {
		b.mu.Lock()
		b.acqs = append(b.acqs, backendAcq{key: b.key(resource, fence), call: t0, ret: t1})
		b.mu.Unlock()
	}
	return fence, exp, err
}

func (b *timedBackend) TryAcquire(resource string) (uint64, time.Time, bool, error) {
	return b.inner.TryAcquire(resource)
}

func (b *timedBackend) Release(resource string, fence uint64) error {
	if b.tr.on.Load() {
		t0 := b.tr.now()
		b.mu.Lock()
		b.rels = append(b.rels, backendRel{key: b.key(resource, fence), call: t0})
		b.mu.Unlock()
	}
	return b.inner.Release(resource, fence)
}

// fenceKey names one hold: fences are strictly increasing per shard.
type fenceKey struct {
	shard int32
	fence uint64
}

// opRec is one measured acquire→hold→release cycle as its caller saw it.
type opRec struct {
	key                              fenceKey
	acqCall, acqRet, relCall, relRet int64
}

// span is everything the traced pass learned about one hold, in
// nanoseconds since the tracer's start; 0 means "not seen".
type span struct {
	acqCall, acqRet, relCall    int64 // caller-observed
	bAcqCall, bAcqRet, bRelCall int64 // member-side (equal to the above for member callers)
	granted                     int64
	relCore, relCoreEnd         int64
	privSend, privDeliver       int64
}

// spans folds the callers' records, the backends' records and the shims'
// stamps into one span per hold. Call it only after the cluster is closed.
func (t *tracer) spans(ops []opRec, backends []*timedBackend) map[fenceKey]*span {
	out := make(map[fenceKey]*span, len(ops))
	at := func(k fenceKey) *span {
		s := out[k]
		if s == nil {
			s = &span{}
			out[k] = s
		}
		return s
	}
	for _, op := range ops {
		s := at(op.key)
		s.acqCall, s.acqRet, s.relCall = op.acqCall, op.acqRet, op.relCall
		if len(backends) == 0 {
			s.bAcqCall, s.bAcqRet, s.bRelCall = op.acqCall, op.acqRet, op.relCall
		}
	}
	for _, b := range backends {
		for _, a := range b.acqs {
			s := at(a.key)
			s.bAcqCall, s.bAcqRet = a.call, a.ret
		}
		for _, r := range b.rels {
			at(r.key).bRelCall = r.call
		}
	}
	for _, n := range t.nodes {
		for _, ev := range n.log {
			s := at(fenceKey{shard: int32(n.shard), fence: ev.fence})
			switch ev.kind {
			case evGranted:
				s.granted = ev.ts
			case evRelCore:
				s.relCore = ev.ts
			case evRelCoreEnd:
				s.relCoreEnd = ev.ts
			case evPrivSend:
				s.privSend = ev.ts
			case evPrivDeliver:
				s.privDeliver = ev.ts
			}
		}
	}
	return out
}

// budget is the synchronization-delay table of one workload: per-layer
// means over the joined handoffs, which with Unattributed sum to Mean.
type budget struct {
	Pairs        int                // joined handoffs
	P50, Mean    float64            // of their synchronization delays, µs
	Rows         map[string]float64 // budgetRows name -> mean µs
	Unattributed float64
}

// joinSyncDelay computes the paper's synchronization delay — the time from
// one holder starting its release to the next holder's Acquire returning —
// over every pair of consecutive fences of one shard whose successor was
// already waiting when the release began (otherwise the gap is idle time,
// not delay), and splits each into the layers it crossed:
//
//	clienthop   caller → member for the release, member → caller for the grant
//	lockservice member-side release entry → protocol release entry (slot, session)
//	core        protocol self time on the path: release entry → PRIVILEGE sent
//	            (never past the release call's end), PRIVILEGE delivered →
//	            Env.Granted; for a cohort regrant, release entry → Env.Granted
//	wire        PRIVILEGE handed to Env.Send → reached the successor's Deliver
//	wake        Env.Granted → the member-side Acquire returned
//
// What is left — the token waiting for a REQUEST still in flight, clock
// reads — is the unattributed remainder.
func joinSyncDelay(spans map[fenceKey]*span) budget {
	b := budget{Rows: make(map[string]float64)}
	sums := make(map[string]float64)
	var unattributed float64
	var syncUs []float64
	keys := make([]fenceKey, 0, len(spans))
	for k := range spans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].fence < keys[j].fence
	})
	for _, k := range keys {
		f := spans[k]
		g := spans[fenceKey{shard: k.shard, fence: k.fence + 1}]
		if g == nil || f.relCall == 0 || g.acqRet == 0 || g.acqCall == 0 || g.acqCall > f.relCall {
			continue
		}
		if f.bRelCall == 0 || f.relCore == 0 || f.relCoreEnd == 0 || g.granted == 0 || g.bAcqRet == 0 {
			continue // a window edge cut the span
		}
		sync := float64(g.acqRet - f.relCall)
		rows := map[string]float64{
			"budget.clienthop_us":   float64((f.bRelCall - f.relCall) + (g.acqRet - g.bAcqRet)),
			"budget.lockservice_us": float64(f.relCore - f.bRelCall),
			"budget.wake_us":        float64(g.bAcqRet - g.granted),
		}
		if f.privSend != 0 && f.privDeliver != 0 {
			sentBy := f.privSend
			if sentBy > f.relCoreEnd {
				sentBy = f.relCoreEnd
			}
			rows["budget.core_us"] = float64((sentBy - f.relCore) + (g.granted - f.privDeliver))
			rows["budget.wire_us"] = float64(f.privDeliver - f.privSend)
		} else {
			rows["budget.core_us"] = float64(g.granted - f.relCore)
			rows["budget.wire_us"] = 0
		}
		rest := sync
		for name, v := range rows {
			sums[name] += v / 1e3
			rest -= v
		}
		unattributed += rest / 1e3
		syncUs = append(syncUs, sync/1e3)
	}
	b.Pairs = len(syncUs)
	if b.Pairs == 0 {
		return b
	}
	n := float64(b.Pairs)
	b.P50, b.Mean = median(syncUs), mean(syncUs)
	for _, name := range budgetRows {
		b.Rows[name] = sums[name] / n
	}
	b.Unattributed = unattributed / n
	return b
}

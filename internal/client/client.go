// Package client is the dialing side of the CLIENT wire protocol: a
// lightweight connection to one DAG member (or lock-service member) that
// acquires and releases through it without being a vertex of the token
// DAG. This is the member/client split that lets a small arbitration
// cluster serve a client population far larger than the tree — requests
// ride one framed TCP connection to the member, which queues them,
// arbitrates through the token protocol, and answers with the grant's
// fencing token and lease deadline.
//
// The frame layout is defined once, in internal/transport (see the
// client wire frame notes there, next to the DAG codec); this package
// implements correlation (many concurrent requests over one connection,
// matched by request id), context cancellation (a CANCEL frame
// propagates the client's context into the member's queue, and a grant
// that races the cancel is handed straight back), and the mapping of
// wire error codes onto the same sentinel errors in-process callers see,
// so errors.Is works identically on both sides of the wire.
//
// Callers of one connection that want the same lock at the same time
// share a lane: one per shard when the member's hello names shards, which
// says it grants runs, and one per resource when it names none. A lane is
// a machine (lane.go) that Conn drives under its lock: a value with no
// goroutine, channel, clock or socket, stepped by one event at a time,
// that answers with what its driver must do.
//
//   - State: the waiting callers, in arrival order, named by handles; the
//     acquires in flight — ordinary ones, each good for one waiter, one
//     order (a marked acquire, good for a run), and zombies (canceled,
//     still owed an answer); the hold being handed round, its fences left
//     and the instant, half of the lease left when it came, after which
//     none is handed on; and one stale hold, whose lease ran out while a
//     caller held it.
//   - Events: a caller arrives, or gives up while queued; the member
//     answers an acquire; a caller releases; the connection is lost.
//   - Actions: send an acquire, an order or a cancel; hand a waiter a
//     fence, or fail it; end a hold with Release or ReleaseRun(last, used,
//     more), or hand back a grant nobody waits for; refuse a release in
//     another caller's name.
//
// An arrival, a departure, an answer and the end of a hold each close
// with one settle: request what neither an acquire in flight nor the open
// run will serve — an acquire for a lone caller, an order from two
// waiters on — and withdraw an acquire no waiter is left for. A caller
// alone in its lane never notices it: its frames are what they were
// before lanes, and so are everyone's against a member that grants no
// runs. A run's fences go to the waiters in arrival order, whatever
// resource of the shard each asked for, with no frame; one frame, naming
// the resource the run was ordered for, ends it, and says more when an
// acquire of the lane is in flight behind it, which is then never
// withdrawn: its cancel could reach the member before the promise. The
// lane enforces nothing: the member excludes the shard while the run is
// held, reclaims it when its lease runs out, and reserved its fences
// before answering, so no later grant anywhere can carry one. The tests'
// lane checker explores every interleaving of the machine with a model
// member at a small bound.
//
// A caller that hands runs on itself — a gateway passing its own
// clients' runs through to a member — orders and ends them with
// AcquireRun and ReleaseRun, which go past the lanes.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dagmutex/internal/runtime"
	"dagmutex/internal/transport"
)

// ErrClosed reports an operation on a closed (or failed) connection.
var ErrClosed = errors.New("client: connection closed")

// ErrBusy reports a request the member shed — either this connection
// already has its queue depth of requests outstanding (the default is
// transport.MaxClientInflight), or the member's admission rate limit
// was exceeded. The backpressure signal: drain, back off, or retry.
var ErrBusy = errors.New("client: member request queue full")

// Hold is one live remote grant: the fencing token to pass downstream
// and the lease deadline after which the member reclaims the resource.
type Hold struct {
	// Resource is the acquired resource name ("" for a member's single
	// mutex).
	Resource string
	// Fence is the grant's fencing token, strictly monotonic per
	// arbitrated resource.
	Fence uint64
	// Expires is the lease deadline (zero when the member runs without
	// leases). Holds handed out of one run share one deadline — the
	// run's, set when the member granted it — so a hold late in a run has
	// less of its lease left than one granted on its own.
	Expires time.Time
}

// resp is one response frame in fixed fields, so that delivering it
// allocates nothing; only an error's message is allocated.
type resp struct {
	op      byte
	ok      bool   // the payload was well-formed for op
	granted bool   // RespTry
	code    byte   // RespErr: the wire error code
	fence   uint64 // RespGrant, RespTry, RespRun (the run's first)
	expiry  uint64 // RespGrant, RespTry, RespRun: lease deadline, unix nanos, 0 = none
	run     uint32 // RespRun: fences in the run, at least 1
	msg     string // RespErr
}

// decodeResp parses one response payload, copying what it keeps.
func decodeResp(op byte, payload []byte) resp {
	r := resp{op: op}
	switch {
	case op == transport.RespGrant && len(payload) == 16:
		r.ok = true
		r.fence = binary.BigEndian.Uint64(payload[0:8])
		r.expiry = binary.BigEndian.Uint64(payload[8:16])
	case op == transport.RespTry && len(payload) == 17:
		r.ok = true
		r.granted = payload[0] != 0
		r.fence = binary.BigEndian.Uint64(payload[1:9])
		r.expiry = binary.BigEndian.Uint64(payload[9:17])
	case op == transport.RespRun && len(payload) == 20:
		r.fence = binary.BigEndian.Uint64(payload[0:8])
		r.expiry = binary.BigEndian.Uint64(payload[8:16])
		r.run = binary.BigEndian.Uint32(payload[16:20])
		r.ok = r.run > 0
	case op == transport.RespOK:
		r.ok = true
	case op == transport.RespErr && len(payload) >= 1:
		r.ok = true
		r.code = payload[0]
		r.msg = string(payload[1:])
	}
	return r
}

// maxFreePending caps a connection's free lists: deep enough for the
// member's default per-connection queue.
const maxFreePending = transport.MaxClientInflight

// pending is the entry of a request in flight or of a caller queued in a
// lane, recycled through Conn.free by the caller that took it once it has
// taken its one response off ch. An acquirer that gives up leaves its
// lane under Conn.mu, finding itself still queued or its response on ch;
// an AcquireRun that gives up unanswered leaves its entry to the reader
// (gone). So no entry is handed a response to a request it served before.
type pending struct {
	ch   chan resp  // cap 1: one response per use, never blocks the reader
	lane *boundLane // set on a lane's acq entry only: the answer is the lane's
	// gone marks an AcquireRun whose caller gave up: the reader owns the
	// entry, hands a grant of key back and recycles it.
	gone bool
	key  string
}

// laneID names a lane: a shard or a resource (see Conn.laneOf).
type laneID struct {
	resource string
	shard    int
}

// boundLane is a lane as its connection drives it. It exists while the
// lane is not idle, and goes back to Conn.freeLanes when it is.
type boundLane struct {
	lane
	id  laneID
	acq pending // stands in Conn.reqs under each acquire the lane has in flight
}

// Conn is one client connection to a member. All methods are safe for
// concurrent use; many requests may be in flight at once (bounded by the
// member's per-connection queue).
type Conn struct {
	conn net.Conn
	out  *transport.FrameWriter // every request frame, in the order sent

	// shards is the S of the member's hello: with 0 nothing is ever
	// marked, which would only hide callers from the member-side cohort
	// handoff that serves them instead.
	shards int

	mu        sync.Mutex
	reqs      map[uint64]*pending
	free      []*pending            // at most maxFreePending
	lanes     map[laneID]*boundLane // see boundLane
	freeLanes []*boundLane          // at most maxFreePending
	parked    []*pending            // the callers queued in lanes, by handle
	holes     []handle              // free handles
	nextID    uint64
	closed    bool
	err       error

	done chan struct{} // closed when the reader exits
}

// helloTimeout bounds the wait for the server's hello after the
// handshake. A server writes it as soon as it has read the handshake, so
// a peer silent this long (a wrong port, a stalled process) is not one.
var helloTimeout = 10 * time.Second

// Dial connects to a member's client port (a TCPHost listener or a
// ClientGateway) and performs the protocol handshake.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial with connection-establishment bounded by ctx. The
// hello read is bounded by ctx and by helloTimeout, whichever ends first.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	hs := make([]byte, 0, 8)
	hs = append(hs, transport.ClientMagic...)
	hs = binary.BigEndian.AppendUint32(hs, transport.ClientVersion)
	_, err = conn.Write(hs)
	shards := 0
	if err == nil {
		helloCtx, cancel := context.WithTimeout(ctx, helloTimeout)
		shards, err = readHello(helloCtx, conn)
		cancel()
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("client: handshake with %s: %w", addr, err)
	}
	return newConn(conn, shards), nil
}

// readHello reads the member's hello, giving up when ctx is done.
func readHello(ctx context.Context, conn net.Conn) (int, error) {
	unblocked := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = conn.SetReadDeadline(time.Unix(1, 0))
		close(unblocked)
	})
	h, err := transport.ReadClientHello(conn)
	if !stop() {
		<-unblocked // ctx ended: take its deadline back off
		_ = conn.SetReadDeadline(time.Time{})
		if err != nil {
			err = fmt.Errorf("%w: %v", ctx.Err(), err)
		}
	}
	return h, err
}

// newConn starts the reader over a connection whose hello named shards.
func newConn(conn net.Conn, shards int) *Conn {
	c := &Conn{
		conn:   conn,
		out:    transport.NewFrameWriter(conn),
		shards: shards,
		reqs:   make(map[uint64]*pending),
		lanes:  make(map[laneID]*boundLane),
		done:   make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Shards returns the S of the member's hello: how many lock domains its
// resources hash into by transport.ShardOf, 0 when it grants no runs.
func (c *Conn) Shards() int { return c.shards }

// readLoop correlates response frames with their pending requests, under
// c.mu, the lock a caller leaving a lane takes. Whatever an answer leaves
// to send is queued for the writer, never written here: a write may wait
// for the member to read, and the member may be waiting for this reader.
func (c *Conn) readLoop() {
	defer close(c.done)
	br := bufio.NewReader(c.conn)
	for {
		op, reqID, payload, err := transport.ReadClientFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			c.out.Shutdown()
			return
		}
		r := decodeResp(op, payload)
		if op == transport.RespRun && !r.ok {
			// A run that cannot be read is a corrupted stream, not an answer.
			c.fail(fmt.Errorf("%w: malformed run frame", ErrClosed))
			_ = c.conn.Close()
			c.out.Shutdown()
			return
		}
		c.mu.Lock()
		if p, ok := c.reqs[reqID]; ok {
			delete(c.reqs, reqID)
			switch {
			case p.lane != nil:
				var buf [4]action
				for _, a := range c.step(p.lane, event{kind: evAnswer, id: reqID, r: r, now: time.Now().UnixNano()}, buf[:0]) {
					c.write(a, true)
				}
			case p.gone:
				if granted(r) {
					c.nextID++ // an id nothing is registered for: the reply is dropped
					c.write(giveBack(c.nextID, p.key, r), true)
				}
				p.gone, p.key = false, ""
				c.recycle(p)
			default:
				p.ch <- r
			}
		}
		c.mu.Unlock()
	}
}

// step runs e through l under c.mu: it registers the acquires sent,
// delivers to waiters (a failed one gets e.r), forgets l once idle, and
// returns the frames left to send.
func (c *Conn) step(l *boundLane, e event, buf []action) []action {
	acts := l.step(e, &c.nextID, buf)
	frames := acts[:0]
	for _, a := range acts {
		switch a.kind {
		case handFence:
			c.unpark(a.h).ch <- resp{op: transport.RespGrant, ok: true, fence: a.fence, expiry: a.expiry}
		case failWaiter:
			c.unpark(a.h).ch <- e.r
		case sendAcquire:
			c.reqs[a.id] = &l.acq
			fallthrough
		default:
			frames = append(frames, a)
		}
	}
	if l.idle() {
		delete(c.lanes, l.id)
		if len(c.freeLanes) < maxFreePending {
			l.id = laneID{}
			c.freeLanes = append(c.freeLanes, l)
		}
	}
	return frames
}

// write sends the frame a step asked for, or with queue only queues it
// for the writer (see readLoop).
func (c *Conn) write(a action, queue bool) {
	var head [13]byte
	op, n := transport.OpAcquire, 0
	switch {
	case a.kind == sendAcquire && a.run:
		op = transport.OpAcquireRun
	case a.kind == sendCancel:
		op = transport.OpCancel
	case a.kind == endHold:
		op, n = transport.OpRelease, 8
		binary.BigEndian.PutUint64(head[:], a.fence)
		if a.run {
			op, n = transport.OpReleaseRun, 13
			binary.BigEndian.PutUint32(head[8:], a.used)
			if a.more {
				head[12] = transport.ReleaseRunMore
			}
		}
	}
	if queue {
		c.out.QueueClientFrame(op, a.id, head[:n], a.key)
	} else {
		c.out.SendClientFrame(op, a.id, head[:n], a.key)
	}
}

// park gives w the handle a lane knows it by. Callers hold c.mu.
func (c *Conn) park(w *pending) handle {
	if n := len(c.holes); n > 0 {
		h := c.holes[n-1]
		c.holes, c.parked[h] = c.holes[:n-1], w
		return h
	}
	c.parked = append(c.parked, w)
	return handle(len(c.parked) - 1)
}

// unpark frees h and returns its entry. Callers hold c.mu.
func (c *Conn) unpark(h handle) *pending {
	w := c.parked[h]
	c.parked[h], c.holes = nil, append(c.holes, h)
	return w
}

// laneOf names resource's lane: its shard, the lock the member excludes
// callers by, when the member names shards; the resource otherwise.
func (c *Conn) laneOf(resource string) laneID {
	if c.shards > 0 {
		return laneID{shard: transport.ShardOf(resource, c.shards)}
	}
	return laneID{resource: resource}
}

// lane returns resource's lane, making one if there is none. Callers
// hold c.mu.
func (c *Conn) lane(resource string) *boundLane {
	id := c.laneOf(resource)
	l := c.lanes[id]
	if l == nil {
		if n := len(c.freeLanes); n > 0 {
			l, c.freeLanes = c.freeLanes[n-1], c.freeLanes[:n-1]
		} else {
			l = &boundLane{lane: lane{runs: c.shards > 0}}
			l.acq.lane = l
		}
		l.id = id
		c.lanes[id] = l
	}
	return l
}

// fail marks the connection dead and wakes every waiting caller once: a
// request still in reqs here, a caller queued in a lane by its evLost.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		err = ErrClosed
	}
	if c.err == nil {
		c.err = err
	}
	r := resp{op: transport.RespErr, ok: true, code: transport.CodeGeneric, msg: err.Error()}
	for id, p := range c.reqs {
		delete(c.reqs, id)
		if p.lane == nil {
			p.ch <- r
		}
	}
	var buf [4]action
	for _, l := range c.lanes {
		c.step(l, event{kind: evLost, r: r}, buf[:0])
	}
}

// Err returns the connection's terminal error, if it has one.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.err
}

// Close hangs up. The member releases every hold this connection still
// owns and aborts its queued acquires — same as a client crash.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// recycle returns p to the free list. Callers hold c.mu and own p.
func (c *Conn) recycle(p *pending) {
	if len(c.free) < maxFreePending {
		c.free = append(c.free, p)
	}
}

// finish is recycle for a caller that has just taken its response.
func (c *Conn) finish(p *pending) {
	c.mu.Lock()
	c.recycle(p)
	c.mu.Unlock()
}

// take returns an entry, or the terminal error. Callers hold c.mu.
func (c *Conn) take() (*pending, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.closed {
		return nil, ErrClosed
	}
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		return p, nil
	}
	return &pending{ch: make(chan resp, 1)}, nil
}

// register is take plus a request id. Callers hold c.mu.
func (c *Conn) register() (uint64, *pending, error) {
	p, err := c.take()
	if err != nil {
		return 0, nil, err
	}
	c.nextID++
	c.reqs[c.nextID] = p
	return c.nextID, p, nil
}

// send registers a request and hands its frame to the frame writer,
// allocating nothing in the steady state. A frame the writer drops (the
// connection is failing) is answered by fail.
func (c *Conn) send(op byte, resource string, fence uint64) (uint64, *pending, error) {
	c.mu.Lock()
	id, p, err := c.register()
	c.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	if op == transport.OpRelease {
		c.write(action{kind: endHold, id: id, key: resource, fence: fence}, false)
	} else {
		c.out.SendClientFrame(op, id, nil, resource)
	}
	return id, p, nil
}

// sendAll writes the frames a step left to send.
func (c *Conn) sendAll(frames []action) {
	for _, a := range frames {
		c.write(a, false)
	}
}

// Acquire locks resource through the member, blocking until the grant
// arrives, the connection dies, or ctx is done. The caller joins
// resource's lane; a fence out of a run ordered for another resource of
// the shard is as good as one granted for resource. On ctx expiry Acquire
// returns at once: a caller still queued leaves, an acquire that leaves
// one too many in the member's queue is canceled there, and a grant that
// wins the race anyway is handed straight back, so no hold is leaked.
func (c *Conn) Acquire(ctx context.Context, resource string) (Hold, error) {
	var buf [4]action
	c.mu.Lock()
	w, err := c.take()
	if err != nil {
		c.mu.Unlock()
		return Hold{}, err
	}
	l, h := c.lane(resource), c.park(w)
	frames := c.step(l, event{kind: evArrive, h: h, key: resource}, buf[:0])
	c.mu.Unlock()
	c.sendAll(frames)
	select {
	case r := <-w.ch:
		c.finish(w)
		return decodeGrant(resource, r)
	case <-ctx.Done():
		// Under the lock every delivery happens under: w is either still
		// queued in l (which therefore still exists) and nothing will be
		// delivered once it has left, or its response is on the channel.
		c.mu.Lock()
		select {
		case r := <-w.ch:
			c.recycle(w)
			c.mu.Unlock()
			if r.op == transport.RespGrant && r.ok {
				// Ours after all, and unwanted: release it like any holder.
				go func() { _ = c.release(resource, r.fence) }()
			}
		default:
			// An acquire nobody is left for is withdrawn. The cancel rides
			// the same queue as the acquire, so the member reads it second.
			c.unpark(h)
			frames = c.step(l, event{kind: evLeave, h: h}, buf[:0])
			c.recycle(w)
			c.mu.Unlock()
			c.sendAll(frames)
		}
		return Hold{}, fmt.Errorf("client: acquire %q: %w", resource, ctx.Err())
	}
}

// AcquireRun sends one marked acquire for resource past the lanes, for a
// caller that hands the fences on itself, and returns the hold under the
// run's first fence and how many consecutive fences it holds (1 for an
// ordinary grant); ReleaseRun ends it by its last. On ctx expiry it
// returns at once and cancels; a run that wins that race goes back unused.
func (c *Conn) AcquireRun(ctx context.Context, resource string) (Hold, int, error) {
	id, p, err := c.send(transport.OpAcquireRun, resource, 0)
	if err != nil {
		return Hold{}, 0, err
	}
	select {
	case r := <-p.ch:
		c.finish(p)
		if r.op == transport.RespRun && r.ok {
			return Hold{Resource: resource, Fence: r.fence, Expires: nanosTime(r.expiry)}, int(r.run), nil
		}
		h, err := decodeGrant(resource, r)
		return h, 1, err
	case <-ctx.Done():
	}
	c.mu.Lock()
	select {
	case r := <-p.ch:
		if granted(r) {
			c.nextID++
			c.write(giveBack(c.nextID, resource, r), true)
		}
		c.recycle(p)
		c.mu.Unlock()
	default:
		p.gone, p.key = true, resource
		c.mu.Unlock()
		c.write(action{kind: sendCancel, id: id}, false)
	}
	return Hold{}, 0, fmt.Errorf("client: acquire run %q: %w", resource, ctx.Err())
}

// ReleaseRun ends a run AcquireRun returned, by its last fence: used is
// how many of its fences were handed out, more that the caller's next
// acquire for the run's shard is already on its way to the member (see
// transport.RunBackend).
func (c *Conn) ReleaseRun(resource string, last uint64, used int, more bool) error {
	c.mu.Lock()
	id, p, err := c.register()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.write(action{kind: endHold, run: true, id: id, key: resource, fence: last, used: uint32(used), more: more}, false)
	return c.released(p)
}

// TryAcquire locks resource only if the member can grant it immediately
// — no queueing behind other clients and no token messages. It reports
// false (with no error) when the resource would have to be waited for.
func (c *Conn) TryAcquire(resource string) (Hold, bool, error) {
	_, p, err := c.send(transport.OpTry, resource, 0)
	if err != nil {
		return Hold{}, false, err
	}
	r := <-p.ch
	c.finish(p)
	if r.op == transport.RespTry && r.ok {
		if !r.granted {
			return Hold{}, false, nil
		}
		return Hold{Resource: resource, Fence: r.fence, Expires: nanosTime(r.expiry)}, true, nil
	}
	return Hold{}, false, decodeErr(r)
}

// Release unlocks resource by name (whatever hold the member currently
// tracks for it on this connection's backend).
func (c *Conn) Release(resource string) error { return c.release(resource, 0) }

// ReleaseHold unlocks the exact hold h, matched by its fencing token; a
// hold whose lease already ran out reports runtime.ErrLeaseExpired.
func (c *Conn) ReleaseHold(h Hold) error { return c.release(h.Resource, h.Fence) }

// release ends a hold, through its lane when it has one (lane.release).
func (c *Conn) release(resource string, fence uint64) error {
	var buf [4]action
	var frames []action
	var p *pending
	var err error
	c.mu.Lock()
	if l := c.lanes[c.laneOf(resource)]; l != nil {
		frames = c.step(l, event{kind: evRelease, key: resource, fence: fence, now: time.Now().UnixNano()}, buf[:0])
	} else {
		c.nextID++
		frames = append(buf[:0], action{kind: endHold, id: c.nextID, key: resource, fence: fence})
	}
	switch n := len(frames); {
	case n == 0: // handed on
	case frames[n-1].kind == refuseRelease:
		err = fmt.Errorf("client: release %q: %w", resource, runtime.ErrNotHeld)
	default:
		if p, err = c.take(); err == nil {
			c.reqs[frames[n-1].id] = p
		}
	}
	c.mu.Unlock()
	if p == nil {
		return err
	}
	c.sendAll(frames)
	return c.released(p)
}

// released waits for the member's answer to a release.
func (c *Conn) released(p *pending) error {
	r := <-p.ch
	c.finish(p)
	if r.op == transport.RespOK {
		return nil
	}
	return decodeErr(r)
}

func decodeGrant(resource string, r resp) (Hold, error) {
	if r.op == transport.RespGrant && r.ok {
		return Hold{Resource: resource, Fence: r.fence, Expires: nanosTime(r.expiry)}, nil
	}
	return Hold{}, decodeErr(r)
}

// decodeErr maps a respErr frame back onto the canonical sentinels.
func decodeErr(r resp) error {
	if r.op != transport.RespErr || !r.ok {
		return fmt.Errorf("client: malformed response op %d", r.op)
	}
	var sentinel error
	switch r.code {
	case transport.CodeNotHeld:
		sentinel = runtime.ErrNotHeld
	case transport.CodeLeaseExpired:
		sentinel = runtime.ErrLeaseExpired
	case transport.CodeTryUnsupported:
		sentinel = runtime.ErrTryUnsupported
	case transport.CodeCanceled:
		sentinel = context.Canceled
	case transport.CodeBusy:
		sentinel = ErrBusy
	case transport.CodeNodeDown:
		sentinel = runtime.ErrNodeDown
	default:
		return fmt.Errorf("client: member error: %s", r.msg)
	}
	return fmt.Errorf("client: member error: %s: %w", r.msg, sentinel)
}

func nanosTime(n uint64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(n))
}

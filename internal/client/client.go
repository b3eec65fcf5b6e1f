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
// Callers of one connection that want the same shard at the same time
// share a lane. The member says in its hello, right after the handshake,
// how many lock shards its resources hash into, and naming any says that
// it grants runs: a lock service excludes per shard, so a connection to
// it keeps one lane per shard; against a server that names none, a lane
// is one resource's. Once
// enough callers wait in a lane, it stops sending an acquire for each
// and orders a run instead: one marked acquire for the resource of the
// caller heading the queue, which the member answers with a block of
// consecutive fences under one lease. The lane hands those to its
// waiters in arrival order, whatever resource of the shard each asked
// for, as each holder releases, with no frame at all, and one frame —
// naming the resource the run was ordered for — ends the run. A caller
// alone in its lane never notices it: its frames are what they were
// before lanes existed, and so are everyone's against a member that
// grants no runs. The lane enforces nothing; the member excludes the
// whole shard while the run is held, a run's lease is the member's to
// reclaim, and because the member reserved the run's fences before
// answering, a run reclaimed mid-way can never collide with a later
// grant anywhere.
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
	"slices"
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

// resp is one response frame, decoded by the reader into fixed fields so
// that delivering it costs no allocation; only an error response carries
// a (freshly allocated) message.
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

// decodeResp parses one response payload. It copies what it keeps:
// payload aliases the reader's buffer.
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

// maxFreePending caps a connection's free list of pending entries: deep
// enough for the member's default per-connection queue, and a connection
// carrying more than that at once (a gateway upstream) allocates the
// excess as every request used to.
const maxFreePending = transport.MaxClientInflight

// pending is one waiting caller's client-side state: the entry of a
// request in flight (a try, a release), or of a caller queued in a lane
// for a grant. Entries are recycled through Conn.free, channel included.
//
// Ownership: the caller that took the entry owns it, and returns it to
// the free list once it has taken its one response off ch — which it
// always does: a try or a release waits for its answer however long, and
// an acquirer that gives up leaves its lane's queue under Conn.mu, where
// it finds either that it is still queued (nothing will ever be
// delivered) or that its response is already on ch. (An AcquireRun that
// gives up with no answer on ch instead leaves the entry to the reader:
// see gone.) So an entry reaches
// the free list only with its channel empty and nothing left that could
// fill it, and the reader finds entries only through Conn.reqs and the
// lanes — a recycled entry can never be handed a response addressed to
// the request id it served before.
type pending struct {
	ch chan resp // cap 1: one response per use, never blocks the reader
	// lane is set on a lane's own acq entry and nowhere else: the answer
	// to that request id belongs to the lane, not to a channel.
	lane *lane
	next *pending // the lane's queue
	key  string   // the resource a lane's waiter, or a gone AcquireRun, asked for
	// gone marks the entry of an AcquireRun whose caller gave up before
	// the answer came: the reader owns it from then on, hands whatever
	// the member granted straight back and recycles it.
	gone bool
}

// laneID names a lane: a shard under a hello of shards with runs, a
// resource otherwise (see Conn.laneOf).
type laneID struct {
	resource string
	shard    int
}

// laneReq is an acquire in flight for a lane: its request id and the
// resource it names.
type laneReq struct {
	id  uint64
	key string
}

// lane is one shard's (or resource's) queue inside a connection: the
// callers waiting for it, the acquires in flight on their behalf, and
// the run of fences being handed round. A lane exists only while it has
// something to remember — a waiter, an unanswered acquire, a fence
// held by a caller — and goes back to Conn.freeLanes the moment it does
// not; a grant delivered to the caller that asked for its resource with
// nobody behind it leaves no lane, and that caller's release is an
// ordinary release. Guarded by Conn.mu.
type lane struct {
	id laneID

	// The waiters, first come first served.
	head, tail *pending
	n          int

	// What is in flight for the waiters: ids, ordinary acquires, oldest
	// first, each good for one waiter; and order, a marked acquire (id 0:
	// none), good for as many as the run it comes back with. Each names
	// the resource of the caller heading the queue when it was sent. acq
	// stands in Conn.reqs under every one of them. They belong to the
	// lane, not to the callers whose arrival sent them: a grant goes to
	// whoever heads the queue when it arrives, so a caller that gives up
	// just leaves the queue, and an acquire no waiter is left for is
	// canceled — it then joins the zombies, acquires the member still owes
	// an answer (its refusal, or a grant that raced the cancel), until
	// that answer comes.
	acq     pending
	ids     []laneReq
	order   laneReq
	zombies []laneReq

	// The hold being handed round. held says a caller holds fence cur of
	// it; next..last are the fences not yet handed out, used how many
	// were, expiry the lease deadline they all share, and until the
	// instant (unix nanos, 0: never) from which no further fence is handed
	// out: half of the lease that remained when the run arrived, so the
	// last holder still has the other half. An ordinary grant is handed
	// out here only when it reaches a caller on another resource than the
	// one it names (run.grant).
	held bool
	run
	next   uint64
	expiry uint64
	until  int64

	// stale is a hold the member replaced while a caller still held its
	// fence cur: the lease ran out on it. It is kept so that the holder's
	// late release can name what the member filed the expiry under. One
	// is remembered; the holder of a second gets "not held".
	stale run
}

// run identifies a hold a lane hands round: the fence a caller holds
// (cur) and the resource that caller asked for (holder); the fence and
// resource the member knows the hold by (last, key), which its release
// must name; and how many fences were handed out. grant marks an
// ordinary grant — one fence, ended by an ordinary release.
type run struct {
	cur, last   uint64
	used        uint32
	key, holder string
	grant       bool
}

func (l *lane) push(w *pending) {
	if l.tail == nil {
		l.head = w
	} else {
		l.tail.next = w
	}
	l.tail = w
	l.n++
}

// remove unlinks w.
func (l *lane) remove(w *pending) {
	var prev *pending
	for p := l.head; p != w; p = p.next {
		prev = p
	}
	if prev == nil {
		l.head = w.next
	} else {
		prev.next = w.next
	}
	if l.tail == w {
		l.tail = prev
	}
	w.next = nil
	l.n--
}

// left is how many fences the open run still has for waiters.
func (l *lane) left() int {
	if !l.held || l.next > l.last {
		return 0
	}
	return int(l.last - l.next + 1)
}

// idle reports whether the lane has nothing left to remember.
func (l *lane) idle() bool {
	return l.n == 0 && len(l.ids) == 0 && l.order.id == 0 && len(l.zombies) == 0 && !l.held && l.stale == run{}
}

// hand gives the run's next fence to the caller heading the queue, who
// becomes the holder.
func (l *lane) hand() {
	w := l.head
	l.remove(w)
	l.held, l.cur, l.holder = true, l.next, w.key
	l.next++
	l.used++
	w.ch <- resp{op: transport.RespGrant, ok: true, fence: l.cur, expiry: l.expiry}
}

// newest is the last waiter on key, or the last waiter if none is on it:
// the caller a refused acquire for key fails.
func (l *lane) newest(key string) *pending {
	w := l.tail
	for p := l.head; p != nil; p = p.next {
		if p.key == key {
			w = p
		}
	}
	return w
}

// answered takes acquire id off what the lane has in flight and returns
// the resource it named.
func (l *lane) answered(id uint64) string {
	if id == l.order.id {
		key := l.order.key
		l.order = laneReq{}
		return key
	}
	for _, rs := range []*[]laneReq{&l.ids, &l.zombies} {
		for i, r := range *rs {
			if r.id == id {
				*rs = slices.Delete(*rs, i, i+1)
				return r.key
			}
		}
	}
	return ""
}

// trim withdraws the newest acquire in flight if there are more of them
// than waiters to take their grants, and returns its id for the caller
// to cancel at the member (0: nothing to withdraw). One call withdraws
// at most one: each caller that leaves, and each grant that a canceled
// acquire won after all, unbalances the lane by one.
func (l *lane) trim() (id uint64) {
	last := len(l.ids) - 1
	var r laneReq
	switch {
	case l.order.id != 0 && last+1 >= l.n:
		r, l.order = l.order, laneReq{} // nothing is sent behind an order: it is the newest
	case l.order.id == 0 && last >= l.n:
		r, l.ids = l.ids[last], l.ids[:last]
	default:
		return 0
	}
	l.zombies = append(l.zombies, r)
	return r.id
}

// markAt is how many callers must wait in a lane for it to order a run:
// the one the grant itself is for, and another to hand a second fence
// to. Below that an ordinary acquire per caller does everything a run
// could, and hides nobody from the member.
const markAt = 2

// frame is an acquire the caller must send once it has let go of Conn.mu
// (id 0: nothing to send).
type frame struct {
	op  byte
	id  uint64
	key string
}

// Conn is one client connection to a member. All methods are safe for
// concurrent use; many requests may be in flight at once (bounded by the
// member's per-connection queue).
type Conn struct {
	conn net.Conn
	// out carries every request frame: written inline when the connection
	// is idle, gathered into one writev with the frames of the other
	// callers when it is not, in the order the callers sent them.
	out *transport.FrameWriter

	// shards is the S of the member's hello: with S > 0 lanes are kept per
	// shard and may order runs; with 0 they are kept per resource (see
	// laneOf) and nothing is ever marked — waiting for a run would only
	// hide callers from the member-side cohort handoff that serves them
	// instead — so every waiter has an acquire of its own in flight and
	// the connection's frames are what they were before lanes.
	shards int

	mu        sync.Mutex
	reqs      map[uint64]*pending
	free      []*pending       // at most maxFreePending
	lanes     map[laneID]*lane // see lane
	freeLanes []*lane          // at most maxFreePending
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

// newConn starts the reader and the frame writer over an established
// connection whose handshake has been sent and whose hello named shards.
func newConn(conn net.Conn, shards int) *Conn {
	c := &Conn{
		conn:   conn,
		out:    transport.NewFrameWriter(conn),
		shards: shards,
		reqs:   make(map[uint64]*pending),
		lanes:  make(map[laneID]*lane),
		done:   make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Shards returns the S of the member's hello: how many lock domains its
// resources hash into by transport.ShardOf, 0 when it grants no runs.
func (c *Conn) Shards() int { return c.shards }

// readLoop correlates response frames with their pending requests. The
// answer to a lane's acquire is settled under c.mu, the lock a caller
// leaving the lane's queue takes, so a grant can never slip between
// "caller gave up" and "response delivered" unobserved: it reaches a
// caller's channel while that caller is still queued, or it finds the
// queue empty and goes straight back to the member. Whatever an answer
// leaves to send is queued for the writer, never written here: a write
// may wait for the member to read, and the member may be waiting for
// this reader.
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
				c.answerLane(p.lane, reqID, r)
			case p.gone:
				if granted(r) {
					c.handBack(p.key, r)
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

// answerLane settles the member's answer to one of l's acquires: a grant
// or a run goes to the caller heading the queue (or, with nobody there,
// straight back to the member), an error fails the newest caller on the
// refused acquire's resource alone — the one whose arrival sent it, more
// often than not — and whoever is still unserved afterwards gets the
// next acquire, or an acquire nobody is left for is withdrawn (see
// trim). Callers hold c.mu.
func (c *Conn) answerLane(l *lane, id uint64, r resp) {
	key := l.answered(id)
	switch {
	case granted(r) && l.n == 0:
		c.handBack(key, r)
	case granted(r):
		if l.held {
			// The member grants this shard to this connection again while a
			// caller still holds a fence of the last hold: that hold's lease
			// ran out.
			l.stale, l.held = l.run, false
		}
		if r.op == transport.RespGrant && l.head.key == key {
			// An ordinary grant for the resource its caller asked for: the
			// caller's own from here on, released with an ordinary release.
			// The lane keeps no trace of it.
			w := l.head
			l.remove(w)
			w.ch <- r
			break
		}
		n := uint32(1) // an ordinary grant reaching a caller on another resource
		if r.op == transport.RespRun {
			n = r.run
		}
		l.run = run{last: r.fence + uint64(n-1), key: key, grant: r.op == transport.RespGrant}
		l.next, l.expiry, l.until = r.fence, r.expiry, 0
		if r.expiry != 0 {
			now := time.Now().UnixNano()
			l.until = now + max(int64(r.expiry)-now, 0)/2
		}
		l.hand()
	case r.ok && r.op == transport.RespErr && r.code == transport.CodeCanceled:
		// The member honoured a cancel. Callers queued now arrived after
		// it was sent and are owed an acquire of their own, not this
		// refusal.
	case l.n > 0:
		w := l.newest(key)
		l.remove(w)
		w.ch <- r
	}
	if f := c.laneRequest(l); f.id != 0 {
		c.out.QueueClientFrame(f.op, f.id, nil, f.key)
	}
	if cancel := l.trim(); cancel != 0 {
		c.out.QueueClientFrame(transport.OpCancel, cancel, nil, "")
	}
	if l.idle() {
		c.dropLane(l)
	}
}

// laneRequest puts an acquire in flight for l if a caller waits that
// nothing under way will serve: not a fence of the open run, not one of
// the ordinary acquires in flight, and no run is on order. With few
// waiters — or a member that grants no runs — that is an ordinary
// acquire per caller, sent as each arrives: what the connection did
// before lanes, and what lets the member's own cohort handoff see every
// one of them. From markAt waiters on it is one marked acquire, and
// later arrivals wait for the run it brings. Either names the resource
// of the caller heading the queue, which in a shard lane is the only
// waiter whenever an ordinary acquire is sent. Callers hold c.mu.
func (c *Conn) laneRequest(l *lane) frame {
	unserved := l.n - l.left() - len(l.ids)
	if l.order.id != 0 || unserved <= 0 {
		return frame{}
	}
	c.nextID++
	c.reqs[c.nextID] = &l.acq
	r := laneReq{id: c.nextID, key: l.head.key}
	if l.n >= markAt && c.shards > 0 {
		l.order = r
		return frame{op: transport.OpAcquireRun, id: r.id, key: r.key}
	}
	l.ids = append(l.ids, r)
	return frame{op: transport.OpAcquire, id: r.id, key: r.key}
}

// sendAcquire sends f (id 0: nothing to send).
func (c *Conn) sendAcquire(f frame) {
	if f.id != 0 {
		c.out.SendClientFrame(f.op, f.id, nil, f.key)
	}
}

// sendCancel withdraws acquire id from the member's queue (0: nothing to
// withdraw).
func (c *Conn) sendCancel(id uint64) {
	if id != 0 {
		c.out.SendClientFrame(transport.OpCancel, id, nil, "")
	}
}

// laneOf names resource's lane: its shard when the member names shards
// — the lock the member excludes callers by — and the resource itself
// otherwise.
func (c *Conn) laneOf(resource string) laneID {
	if c.shards > 0 {
		return laneID{shard: transport.ShardOf(resource, c.shards)}
	}
	return laneID{resource: resource}
}

// lane returns resource's lane, making one if there is none. Callers
// hold c.mu.
func (c *Conn) lane(resource string) *lane {
	id := c.laneOf(resource)
	l := c.lanes[id]
	if l == nil {
		if n := len(c.freeLanes); n > 0 {
			l, c.freeLanes = c.freeLanes[n-1], c.freeLanes[:n-1]
		} else {
			l = &lane{}
			l.acq.lane = l
		}
		l.id = id
		c.lanes[id] = l
	}
	return l
}

// dropLane forgets an idle lane. Callers hold c.mu.
func (c *Conn) dropLane(l *lane) {
	delete(c.lanes, l.id)
	if len(c.freeLanes) < maxFreePending {
		l.id = laneID{}
		c.freeLanes = append(c.freeLanes, l)
	}
}

// fail marks the connection dead and wakes every waiting caller, each
// exactly once: a request is either still in reqs (woken here) or has
// been delivered its response already (and left reqs first), and a
// caller queued in a lane is in exactly one queue. The lanes die with
// the connection; a hold handed out of a run is released, like any
// other, by a release that now fails.
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
	for key, l := range c.lanes {
		delete(c.lanes, key)
		for l.n > 0 {
			w := l.head
			l.remove(w)
			w.ch <- r
		}
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

// recycle returns p to the free list. Callers hold c.mu and own p (see
// pending).
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

// take returns a pending entry for a new caller, or the connection's
// terminal error. Callers hold c.mu.
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

// register is take plus a request id under which the member's answer
// will find the entry. Callers hold c.mu.
func (c *Conn) register() (uint64, *pending, error) {
	p, err := c.take()
	if err != nil {
		return 0, nil, err
	}
	c.nextID++
	c.reqs[c.nextID] = p
	return c.nextID, p, nil
}

// send registers a pending request and hands its frame — the fence for a
// release, then the resource name — to the frame writer. The entry comes
// off the free list and the frame is built in a pooled buffer, so the
// steady-state request path allocates nothing. A frame the writer drops
// (the connection is failing) is answered by fail.
func (c *Conn) send(op byte, resource string, fence uint64) (uint64, *pending, error) {
	c.mu.Lock()
	id, p, err := c.register()
	c.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	if op == transport.OpRelease {
		head := fenceHead(fence)
		c.out.SendClientFrame(op, id, head[:], resource)
	} else {
		c.out.SendClientFrame(op, id, nil, resource)
	}
	return id, p, nil
}

// granted reports whether r hands this connection a hold: a grant or a
// run.
func granted(r resp) bool {
	return r.ok && (r.op == transport.RespGrant || r.op == transport.RespRun)
}

// handBack returns to the member a grant (or a whole run, unused) of
// resource that reached a lane with nobody left in it, or an AcquireRun
// whose caller gave up. No caller waits for the member's answer, so the
// release goes out under an id nothing is registered for and the reader
// drops the reply. Callers hold c.mu.
func (c *Conn) handBack(resource string, r resp) {
	c.nextID++
	if r.op == transport.RespRun {
		head := releaseRunHead(r.fence+uint64(r.run-1), 0, false)
		c.out.QueueClientFrame(transport.OpReleaseRun, c.nextID, head[:], resource)
		return
	}
	head := fenceHead(r.fence)
	c.out.QueueClientFrame(transport.OpRelease, c.nextID, head[:], resource)
}

// fenceHead is an OpRelease payload's fixed part: the fence.
func fenceHead(fence uint64) (head [8]byte) {
	binary.BigEndian.PutUint64(head[:], fence)
	return head
}

// releaseRunHead is an OpReleaseRun payload's fixed part: the run's last
// fence, how many of its fences callers held, and whether an acquire of
// the lane's is in flight for callers still waiting.
func releaseRunHead(last uint64, used uint32, more bool) (head [13]byte) {
	binary.BigEndian.PutUint64(head[0:8], last)
	binary.BigEndian.PutUint32(head[8:12], used)
	if more {
		head[12] = transport.ReleaseRunMore
	}
	return head
}

// Acquire locks resource through the member, blocking until the grant
// arrives, the connection dies, or ctx is done. The caller joins
// resource's lane, and unless a run open there has a fence coming its
// way an acquire goes to the member, as it always did. A fence handed out
// of a run ordered for another resource of the shard is as good as one
// granted for resource: the member excludes the whole shard. On ctx expiry
// Acquire returns immediately: a caller still queued just leaves, an
// acquire that leaves one too many in the member's queue is canceled
// there, and a grant that nonetheless wins the race on the wire — or had
// reached this caller already — is handed straight back, so no hold is
// leaked.
func (c *Conn) Acquire(ctx context.Context, resource string) (Hold, error) {
	c.mu.Lock()
	w, err := c.take()
	if err != nil {
		c.mu.Unlock()
		return Hold{}, err
	}
	l := c.lane(resource)
	w.key = resource
	l.push(w)
	acq := c.laneRequest(l)
	c.mu.Unlock()
	c.sendAcquire(acq)
	select {
	case r := <-w.ch:
		c.finish(w)
		return decodeGrant(resource, r)
	case <-ctx.Done():
		// Under the lock every delivery happens under: w is either still
		// queued in l (which therefore still exists) and nothing will be
		// delivered once it has left, or its response is on the channel.
		c.mu.Lock()
		var cancel uint64
		select {
		case r := <-w.ch:
			c.recycle(w)
			c.mu.Unlock()
			if r.op == transport.RespGrant && r.ok {
				// Ours after all, and unwanted: release it like any holder.
				go func() { _ = c.release(resource, r.fence) }()
			}
		default:
			l.remove(w)
			c.recycle(w)
			// An acquire nobody is left for is withdrawn. The cancel rides
			// the same queue as the acquire, so the member reads it second.
			cancel = l.trim()
			if l.idle() {
				c.dropLane(l)
			}
			c.mu.Unlock()
			c.sendCancel(cancel)
		}
		return Hold{}, fmt.Errorf("client: acquire %q: %w", resource, ctx.Err())
	}
}

// AcquireRun sends one marked acquire for resource past the connection's
// lanes, for a caller that hands the fences on itself, and returns the
// member's answer whole: the hold under the run's first fence and how
// many consecutive fences the run holds (1 for an ordinary grant). The
// member knows the hold by its last fence; ReleaseRun ends it. On ctx
// expiry AcquireRun returns at once and cancels the acquire at the
// member; should the run win that race, the reader hands it back unused.
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
			c.handBack(resource, r)
		}
		c.recycle(p)
		c.mu.Unlock()
	default:
		p.gone, p.key = true, resource
		c.mu.Unlock()
		c.sendCancel(id)
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
	head := releaseRunHead(last, uint32(used), more)
	c.out.SendClientFrame(transport.OpReleaseRun, id, head[:], resource)
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

// release ends a hold. One that came out of a lane (the lane's current
// fence of resource, or whatever it is when released by name) is the
// lane's to end: while the run has fences, callers wait and its lease
// rule allows, the next caller simply gets the next fence and nothing is
// sent; otherwise the hold ends here, in one frame naming its last fence
// and the resource the member granted it for. A release that would end
// that hold in another caller's name is refused here; every other
// release is forwarded as it is.
func (c *Conn) release(resource string, fence uint64) error {
	c.mu.Lock()
	l := c.lanes[c.laneOf(resource)]
	var ended run
	switch {
	case l != nil && l.held && resource == l.holder && (fence == 0 || fence == l.cur):
		// A fence goes only to a waiter no ordinary acquire in flight is
		// counted for. Those acquires are queued at the member behind the
		// run (it overtook them there); the run ends instead and the
		// member hands over to them, where a fence would leave one with
		// nobody to serve, to be withdrawn by a cancel that can cross the
		// run's end.
		if l.n > len(l.ids) && l.next <= l.last && (l.until == 0 || time.Now().UnixNano() < l.until) {
			l.hand() // what is in flight still covers the rest: nothing to send
			c.mu.Unlock()
			return nil
		}
		ended, l.held = l.run, false
	case l != nil && fence != 0 && fence == l.stale.cur && resource == l.stale.holder:
		ended, l.stale = l.stale, run{}
	case l != nil && l.held && resource == l.key && (fence == 0 || fence == l.last):
		// Forwarded, this would end the hold another caller is inside.
		c.mu.Unlock()
		return fmt.Errorf("client: release %q: %w", resource, runtime.ErrNotHeld)
	default:
		c.mu.Unlock()
		_, p, err := c.send(transport.OpRelease, resource, fence)
		if err != nil {
			return err
		}
		return c.released(p)
	}
	id, p, err := c.register()
	acq := c.laneRequest(l) // whoever the run left waiting
	more := l.n > 0         // then an acquire is in flight for them: sent just now, or earlier
	if l.idle() {
		c.dropLane(l)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.sendAcquire(acq)
	if ended.grant {
		head := fenceHead(ended.cur)
		c.out.SendClientFrame(transport.OpRelease, id, head[:], ended.key)
	} else {
		head := releaseRunHead(ended.last, ended.used, more)
		c.out.SendClientFrame(transport.OpReleaseRun, id, head[:], ended.key)
	}
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

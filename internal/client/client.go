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
// Callers of one connection that want the same resource at the same time
// share a per-resource lane. Once enough of them wait, the lane stops
// sending an acquire for each and orders a run instead: one marked
// acquire, which the member may answer with a block of consecutive
// fences under one lease. The lane hands those to its waiters in arrival
// order as each holder releases, with no frame at all, and one frame
// ends the run. A caller alone on its resource never notices the lane:
// its frames are what they were before lanes existed, and so, but for
// the first marked acquire, are everyone's against a member that grants
// no runs. The lane enforces nothing; a run's lease is the member's to
// reclaim, and because the member reserved the run's fences before
// answering, a run reclaimed mid-way can never collide with a later
// grant anywhere.
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
// delivered) or that its response is already on ch. So an entry reaches
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
}

// lane is one resource's queue inside a connection: the callers waiting
// for it, the acquires in flight on their behalf, and the run of fences
// being handed round. A lane exists only while it has something to
// remember — a waiter, an unanswered acquire, a run's fence held by a
// caller — and goes back to Conn.freeLanes the moment it does not; a
// grant delivered to a caller with nobody behind it leaves no lane, and
// that caller's release is an ordinary release. Guarded by Conn.mu.
type lane struct {
	key string

	// The waiters, first come first served.
	head, tail *pending
	n          int

	// What is in flight for the waiters: ids, ordinary acquires, oldest
	// first, each good for one waiter; and order, a marked acquire (0:
	// none), good for as many as the run it comes back with. acq stands in
	// Conn.reqs under every one of them. They belong to the lane, not to
	// the callers whose arrival sent them: a grant goes to whoever heads
	// the queue when it arrives, so a caller that gives up just leaves the
	// queue, and an acquire no waiter is left for is canceled — it then
	// counts among the zombies, ids the member still owes an answer (its
	// refusal, or a grant that raced the cancel), until that answer comes.
	acq     pending
	ids     []uint64
	order   uint64
	zombies int

	// The open run. held says a caller holds fence cur of it; next..last
	// are the fences not yet handed out, used how many were, expiry the
	// lease deadline they all share, and until the instant (unix nanos, 0:
	// never) from which no further fence is handed out: half of the lease
	// that remained when the run arrived, so the last holder still has
	// the other half. An ordinary grant opens no run.
	held bool
	run
	next   uint64
	expiry uint64
	until  int64

	// stale is a run the member replaced while a caller still held its
	// fence cur: the lease ran out on it. It is kept so that the holder's
	// late release can name the run's last fence, which is what the
	// member filed the expiry under. One is remembered; the holder of a
	// second gets "not held".
	stale run
}

// run identifies a run by the fence a caller holds (cur) and the fence
// the member knows it by (last), with how many fences were handed out.
type run struct {
	cur, last uint64
	used      uint32
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
	return l.n == 0 && len(l.ids) == 0 && l.order == 0 && l.zombies == 0 && !l.held && l.stale == run{}
}

// hand gives the run's next fence to the caller heading the queue, who
// becomes the holder.
func (l *lane) hand() {
	w := l.head
	l.remove(w)
	l.held, l.cur = true, l.next
	l.next++
	l.used++
	w.ch <- resp{op: transport.RespGrant, ok: true, fence: l.cur, expiry: l.expiry}
}

// trim withdraws the newest acquire in flight if there are more of them
// than waiters to take their grants, and returns its id for the caller
// to cancel at the member (0: nothing to withdraw). One call withdraws
// at most one: each caller that leaves, and each grant that a canceled
// acquire won after all, unbalances the lane by one.
func (l *lane) trim() (id uint64) {
	last := len(l.ids) - 1
	switch {
	case l.order != 0 && last+1 >= l.n:
		id, l.order = l.order, 0 // nothing is sent behind an order: it is the newest
	case l.order == 0 && last >= l.n:
		id, l.ids = l.ids[last], l.ids[:last]
	default:
		return 0
	}
	l.zombies++
	return id
}

// markAt is how many callers must wait in a lane for it to order a run:
// the one the grant itself is for, and another to hand a second fence
// to. Below that an ordinary acquire per caller does everything a run
// could, and hides nobody from the member.
const markAt = 2

// frame is a request the caller must send once it has let go of Conn.mu
// (id 0: nothing to send). more says the lane wants further acquires
// sent after this one.
type frame struct {
	op   byte
	id   uint64
	key  string
	more bool
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

	mu        sync.Mutex
	reqs      map[uint64]*pending
	free      []*pending       // at most maxFreePending
	lanes     map[string]*lane // by resource; see lane
	freeLanes []*lane          // at most maxFreePending
	nextID    uint64
	// runless is set, for good, when the member answers a marked acquire
	// with an ordinary grant: its backend grants no runs (a gateway, or a
	// wrapper around a member's). Waiting for one would only hide callers
	// from the member-side cohort handoff that serves them instead, so
	// from then on nothing is marked, every waiter has an acquire of its
	// own in flight, and the connection's frames are what they were
	// before lanes.
	runless bool
	closed  bool
	err     error

	done chan struct{} // closed when the reader exits
}

// Dial connects to a member's client port (a TCPHost listener or a
// ClientGateway) and performs the protocol handshake.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial with connection-establishment bounded by ctx.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	hs := make([]byte, 0, 8)
	hs = append(hs, transport.ClientMagic...)
	hs = binary.BigEndian.AppendUint32(hs, transport.ClientVersion)
	if _, err := conn.Write(hs); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("client: handshake with %s: %w", addr, err)
	}
	return newConn(conn), nil
}

// newConn starts the reader and the frame writer over an established
// connection whose handshake has been sent.
func newConn(conn net.Conn) *Conn {
	c := &Conn{
		conn:  conn,
		out:   transport.NewFrameWriter(conn),
		reqs:  make(map[uint64]*pending),
		lanes: make(map[string]*lane),
		done:  make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop correlates response frames with their pending requests. The
// answer to a lane's acquire is settled under c.mu, the lock a caller
// leaving the lane's queue takes, so a grant can never slip between
// "caller gave up" and "response delivered" unobserved: it reaches a
// caller's channel while that caller is still queued, or it finds the
// queue empty and goes straight back to the member.
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
		p, ok := c.reqs[reqID]
		if !ok {
			c.mu.Unlock()
			continue
		}
		delete(c.reqs, reqID)
		if p.lane == nil {
			p.ch <- r
			c.mu.Unlock()
			continue
		}
		key := p.lane.key // the lane may be gone once c.mu is
		unwanted, cancel, acq := c.answerLane(p.lane, reqID, r)
		c.mu.Unlock()
		if unwanted || cancel != 0 || acq.id != 0 {
			// Off the reader's goroutine: a write may wait for the member to
			// read, and the member may be waiting for this reader. It is
			// the rare answer that leaves anything to send.
			go func() {
				c.sendAcquire(acq)
				c.sendCancel(cancel)
				if unwanted {
					// Granted to a lane everyone has left: straight back.
					c.handBack(key, r)
				}
			}()
		}
	}
}

// answerLane settles the member's answer to one of l's acquires: a grant
// or a run goes to the caller heading the queue (unwanted reports that
// there was none), an error fails the newest caller alone — the one
// whose arrival sent the refused acquire, more often than not — and
// whoever is still unserved afterwards gets the next acquire (the
// returned frame; cancel is an acquire to withdraw instead, see trim).
// Callers hold c.mu.
func (c *Conn) answerLane(l *lane, id uint64, r resp) (unwanted bool, cancel uint64, acq frame) {
	if id == l.order {
		l.order = 0
		if r.ok && r.op == transport.RespGrant {
			c.runless = true
		}
	} else if i := slices.Index(l.ids, id); i >= 0 {
		l.ids = slices.Delete(l.ids, i, i+1)
	} else {
		l.zombies--
	}
	granted := r.ok && (r.op == transport.RespGrant || r.op == transport.RespRun)
	switch {
	case granted && l.n == 0:
		unwanted = true
	case granted:
		if l.held {
			// The member grants this resource to this connection again
			// while a caller still holds a fence of the last run: that
			// run's lease ran out.
			l.stale, l.held = l.run, false
		}
		if r.op == transport.RespGrant {
			// An ordinary grant: the caller's own from here on, released
			// with an ordinary release. The lane keeps no trace of it.
			w := l.head
			l.remove(w)
			w.ch <- r
			break
		}
		l.run, l.next, l.expiry, l.until = run{last: r.fence + uint64(r.run-1)}, r.fence, r.expiry, 0
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
		w := l.tail
		l.remove(w)
		w.ch <- r
	}
	cancel = l.trim()
	acq = c.laneRequest(l)
	if l.idle() {
		c.dropLane(l)
	}
	return unwanted, cancel, acq
}

// laneRequest puts an acquire in flight for l if a caller waits that
// nothing under way will serve: not a fence of the open run, not one of
// the ordinary acquires in flight, and no run is on order. With few
// waiters that is an ordinary acquire per caller, sent as each arrives —
// what the connection did before lanes, and what lets the member's own
// cohort handoff see every one of them. From markAt waiters on it is one
// marked acquire, and later arrivals wait for the run it brings. Callers
// hold c.mu.
func (c *Conn) laneRequest(l *lane) frame {
	unserved := l.n - l.left() - len(l.ids)
	if l.order != 0 || unserved <= 0 {
		return frame{}
	}
	c.nextID++
	c.reqs[c.nextID] = &l.acq
	if l.n >= markAt && !c.runless {
		l.order = c.nextID
		return frame{op: transport.OpAcquireRun, id: c.nextID, key: l.key}
	}
	l.ids = append(l.ids, c.nextID)
	return frame{op: transport.OpAcquire, id: c.nextID, key: l.key, more: unserved > 1}
}

// sendAcquire sends f, then whatever further acquires its lane wants —
// only ever the case at the moment a connection turns runless with
// callers queued behind the order.
func (c *Conn) sendAcquire(f frame) {
	for f.id != 0 {
		c.out.SendClientFrame(f.op, f.id, nil, f.key)
		if !f.more {
			return
		}
		c.mu.Lock()
		key := f.key
		f = frame{}
		if l := c.lanes[key]; l != nil {
			f = c.laneRequest(l)
		}
		c.mu.Unlock()
	}
}

// sendCancel withdraws acquire id from the member's queue (0: nothing to
// withdraw).
func (c *Conn) sendCancel(id uint64) {
	if id != 0 {
		c.out.SendClientFrame(transport.OpCancel, id, nil, "")
	}
}

// lane returns resource's lane, making one if there is none. Callers
// hold c.mu.
func (c *Conn) lane(resource string) *lane {
	l := c.lanes[resource]
	if l == nil {
		if n := len(c.freeLanes); n > 0 {
			l, c.freeLanes = c.freeLanes[n-1], c.freeLanes[:n-1]
		} else {
			l = &lane{}
			l.acq.lane = l
		}
		l.key = resource
		c.lanes[resource] = l
	}
	return l
}

// dropLane forgets an idle lane. Callers hold c.mu.
func (c *Conn) dropLane(l *lane) {
	delete(c.lanes, l.key)
	if len(c.freeLanes) < maxFreePending {
		l.key = ""
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
		var head [8]byte
		binary.BigEndian.PutUint64(head[:], fence)
		c.out.SendClientFrame(op, id, head[:], resource)
	} else {
		c.out.SendClientFrame(op, id, nil, resource)
	}
	return id, p, nil
}

// handBack returns to the member a grant (or a whole run, unused) that
// reached a lane with nobody left in it. No caller waits for the
// member's answer, so the release goes out under an id nothing is
// registered for and the reader drops the reply.
func (c *Conn) handBack(resource string, r resp) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	if r.op == transport.RespRun {
		c.sendReleaseRun(id, resource, r.fence+uint64(r.run-1), 0, false)
		return
	}
	var head [8]byte
	binary.BigEndian.PutUint64(head[:], r.fence)
	c.out.SendClientFrame(transport.OpRelease, id, head[:], resource)
}

// sendReleaseRun writes the frame that ends a run: its last fence, how
// many of its fences callers held, and whether an acquire of the lane's
// is in flight for callers still waiting.
func (c *Conn) sendReleaseRun(id uint64, resource string, last uint64, used uint32, more bool) {
	var head [13]byte
	binary.BigEndian.PutUint64(head[0:8], last)
	binary.BigEndian.PutUint32(head[8:12], used)
	if more {
		head[12] = transport.ReleaseRunMore
	}
	c.out.SendClientFrame(transport.OpReleaseRun, id, head[:], resource)
}

// Acquire locks resource through the member, blocking until the grant
// arrives, the connection dies, or ctx is done. The caller joins
// resource's lane, and unless a run open there has a fence coming its
// way an acquire goes to the member, as it always did. On ctx expiry
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

// release ends a hold. One that came out of a lane's run (the lane's
// current fence, or whatever it is when released by name) is the lane's
// to end: while the run has fences, callers wait and its lease rule
// allows, the next caller simply gets the next fence and nothing is
// sent; otherwise the run ends here, in one frame naming its last fence.
// Every other release is forwarded as it is.
func (c *Conn) release(resource string, fence uint64) error {
	c.mu.Lock()
	l := c.lanes[resource]
	var ended run
	switch {
	case l != nil && l.held && (fence == 0 || fence == l.cur):
		if l.n > 0 && l.next <= l.last && (l.until == 0 || time.Now().UnixNano() < l.until) {
			l.hand()
			cancel, acq := l.trim(), c.laneRequest(l)
			c.mu.Unlock()
			c.sendAcquire(acq)
			c.sendCancel(cancel)
			return nil
		}
		ended, l.held = l.run, false
	case l != nil && fence != 0 && fence == l.stale.cur:
		ended, l.stale = l.stale, run{}
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
	c.sendReleaseRun(id, resource, ended.last, ended.used, more)
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

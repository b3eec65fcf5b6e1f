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
	// leases).
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
	fence   uint64 // RespGrant, RespTry
	expiry  uint64 // RespGrant, RespTry: lease deadline, unix nanos, 0 = none
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

// pending is one in-flight request's client-side state. Entries are
// recycled through Conn.free, channel included.
//
// Ownership: the caller that registered the entry owns it, and returns
// it to the free list once it has taken its one response off ch. A
// caller that gives up first (context done) marks it abandoned under
// Conn.mu and walks away; ownership passes to the reader, which disposes
// of the response when it arrives and recycles the entry then. Either
// way an entry reaches the free list only after it has left Conn.reqs
// and its channel is empty, and the reader finds entries only through
// Conn.reqs — so a recycled entry can never be handed a response
// addressed to the request id it served before.
type pending struct {
	ch chan resp // cap 1: one response per registration, never blocks the reader
	// resource is remembered so an abandoned acquire's racing grant can be
	// handed straight back with a release.
	resource string
	// isAcquire marks requests whose racing success must be released.
	isAcquire bool
	// abandoned is set when the caller gave up and no longer listens on
	// ch. Guarded by Conn.mu.
	abandoned bool
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

	mu     sync.Mutex
	reqs   map[uint64]*pending
	free   []*pending // at most maxFreePending
	nextID uint64
	closed bool
	err    error

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
		conn: conn,
		out:  transport.NewFrameWriter(conn),
		reqs: make(map[uint64]*pending),
		done: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop correlates response frames with their pending requests. An
// abandoned acquire whose grant arrives anyway is released immediately —
// the member must not think this client still holds it. The abandoned
// check and the channel delivery happen under c.mu, pairing with the
// abandon path in Acquire (which drains the channel under the same
// lock), so a grant can never slip between "caller gave up" and
// "response delivered" unobserved.
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
		c.mu.Lock()
		p, ok := c.reqs[reqID]
		if !ok {
			c.mu.Unlock()
			continue
		}
		delete(c.reqs, reqID)
		if !p.abandoned {
			p.ch <- r
			c.mu.Unlock()
			continue
		}
		resource, isAcquire := p.resource, p.isAcquire
		c.recycle(p)
		c.mu.Unlock()
		if isAcquire && r.op == transport.RespGrant && r.ok {
			// The grant raced our cancel: hand it straight back.
			c.handBack(resource, r.fence)
		}
	}
}

// fail marks the connection dead and wakes every pending request, each
// exactly once: a request is either still in reqs (woken here) or has
// been delivered its response already (and left reqs first).
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
		if !p.abandoned {
			p.ch <- r
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
		p.resource, p.abandoned = "", false
		c.free = append(c.free, p)
	}
}

// finish is recycle for a caller that has just taken its response.
func (c *Conn) finish(p *pending) {
	c.mu.Lock()
	c.recycle(p)
	c.mu.Unlock()
}

// send registers a pending request and hands its frame — the fence for a
// release, then the resource name — to the frame writer. The entry comes
// off the free list and the frame is built in a pooled buffer, so the
// steady-state request path allocates nothing. A frame the writer drops
// (the connection is failing) is answered by fail.
func (c *Conn) send(op byte, resource string, fence uint64) (uint64, *pending, error) {
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return 0, nil, err
	}
	var p *pending
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = &pending{ch: make(chan resp, 1)}
	}
	p.resource, p.isAcquire = resource, op != transport.OpRelease
	c.nextID++
	id := c.nextID
	c.reqs[id] = p
	c.mu.Unlock()
	if op == transport.OpRelease {
		var head [8]byte
		binary.BigEndian.PutUint64(head[:], fence)
		c.out.SendClientFrame(op, id, head[:], resource)
	} else {
		c.out.SendClientFrame(op, id, nil, resource)
	}
	return id, p, nil
}

// handBack gives back a grant that raced a cancellation, off the
// caller's (or the reader's) goroutine: the release's response must not
// be waited for by the goroutine that reads it.
func (c *Conn) handBack(resource string, fence uint64) {
	go func() { _ = c.release(resource, fence) }()
}

// Acquire locks resource through the member, blocking until the grant
// arrives, the connection dies, or ctx is done. On ctx expiry the
// cancellation is propagated to the member's queue and Acquire returns
// immediately; if the grant nonetheless wins the race on the wire it is
// handed straight back, so no hold is leaked.
func (c *Conn) Acquire(ctx context.Context, resource string) (Hold, error) {
	id, p, err := c.send(transport.OpAcquire, resource, 0)
	if err != nil {
		return Hold{}, err
	}
	select {
	case r := <-p.ch:
		c.finish(p)
		return decodeGrant(resource, r)
	case <-ctx.Done():
		// Under the lock the reader holds while delivering, either take the
		// response that was delivered concurrently (the entry is ours to
		// recycle; a grant goes straight back) or mark the request
		// abandoned, after which the reader disposes of the response — and
		// hands a racing grant back — itself. Either way no hold leaks.
		c.mu.Lock()
		select {
		case r := <-p.ch:
			c.recycle(p)
			c.mu.Unlock()
			if r.op == transport.RespGrant && r.ok {
				c.handBack(resource, r.fence)
			}
		default:
			p.abandoned = true
			c.mu.Unlock()
			// The cancel rides the same queue as the acquire, so the member
			// reads it second.
			c.out.SendClientFrame(transport.OpCancel, id, nil, "")
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

func (c *Conn) release(resource string, fence uint64) error {
	_, p, err := c.send(transport.OpRelease, resource, fence)
	if err != nil {
		return err
	}
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

package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/transport"
)

// wireFrame is one frame as the fake member below sees it.
type wireFrame struct {
	op      byte
	id      uint64
	payload string
}

// member is the far end of a Conn under test: it reads request frames and
// writes whatever responses the test tells it to, so a test decides the
// order of events on the wire. The connection is a net.Pipe — every write
// blocks until the other side reads it — which is what lets a test hold
// the Conn's writer mid-write.
type member struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// pipe connects a Conn to a fake member whose hello names 256 shards, so
// it grants runs, and every resource these tests name falls in a shard,
// and a lane, of its own.
func pipe(t *testing.T) (*Conn, *member) {
	t.Helper()
	return pipeHello(t, 256)
}

// pipeHello is pipe with the shard count of the member's hello given.
func pipeHello(t *testing.T, shards int) (*Conn, *member) {
	t.Helper()
	near, far := net.Pipe()
	c := newConn(near, shards)
	t.Cleanup(func() {
		_ = far.Close()
		_ = c.Close()
	})
	_ = far.SetDeadline(time.Now().Add(20 * time.Second))
	return c, &member{t: t, conn: far, br: bufio.NewReader(far)}
}

func (m *member) read() wireFrame {
	m.t.Helper()
	op, id, payload, err := transport.ReadClientFrame(m.br)
	if err != nil {
		m.t.Fatalf("member read: %v", err)
	}
	return wireFrame{op, id, string(payload)}
}

func (m *member) expect(op byte, payload string) wireFrame {
	m.t.Helper()
	f := m.read()
	if f.op != op || f.payload != payload {
		m.t.Fatalf("member read (op %d, id %d, %q), want (op %d, %q)", f.op, f.id, f.payload, op, payload)
	}
	return f
}

func (m *member) write(op byte, id uint64, payload []byte) {
	m.t.Helper()
	if _, err := m.conn.Write(transport.AppendClientFrame(nil, op, id, payload)); err != nil {
		m.t.Fatalf("member write: %v", err)
	}
}

func (m *member) grant(id, fence uint64) {
	m.t.Helper()
	m.write(transport.RespGrant, id, binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, fence), 0))
}

func releasePayload(fence uint64, resource string) string {
	return string(binary.BigEndian.AppendUint64(nil, fence)) + resource
}

// plug holds the Conn's write turn: it sends a request whose inline write
// cannot complete until the member reads it, and returns once that write
// is under way. Until unplug, every frame the Conn sends queues behind it.
func (m *member) plug(c *Conn) (unplug func()) {
	m.t.Helper()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		_, _, _ = c.send(transport.OpTry, "plug", 0)
	}()
	// One byte taken straight off the pipe (the member's bufio reader would
	// swallow the whole frame): the write has started and cannot finish.
	var first [1]byte
	if _, err := io.ReadFull(m.conn, first[:]); err != nil {
		m.t.Fatalf("plug: %v", err)
	}
	m.br = bufio.NewReader(io.MultiReader(bytes.NewReader(first[:]), m.conn))
	return func() {
		m.t.Helper()
		m.expect(transport.OpTry, "plug")
		<-sent
	}
}

// TestGrantRacingCancelIsHandedBack: the caller gives up, the CANCEL goes
// out, and the member's grant for the same request crosses it on the
// wire. Nobody is waiting for that grant, so the reader must release it
// with the grant's own fence.
func TestGrantRacingCancelIsHandedBack(t *testing.T) {
	c, m := pipe(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, "res")
		errc <- err
	}()
	acq := m.expect(transport.OpAcquire, "res")
	cancel()
	if cn := m.expect(transport.OpCancel, ""); cn.id != acq.id {
		t.Fatalf("cancel names request %d, want %d", cn.id, acq.id)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
	m.grant(acq.id, 41)
	rel := m.expect(transport.OpRelease, releasePayload(41, "res"))
	m.write(transport.RespOK, rel.id, nil)

	// The hand-back's entry and the abandoned one are both reusable: the
	// connection carries on.
	done := make(chan error, 1)
	go func() { done <- c.Release("res") }()
	rel = m.expect(transport.OpRelease, releasePayload(0, "res"))
	m.write(transport.RespOK, rel.id, nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestGrantDeliveredBeforeCancelIsHandedBack covers the other order: the
// grant is already on the caller's channel when the caller acts on its
// context being done. The caller then owns the response and must hand
// the grant back itself. The test holds c.mu to line the two up — reader
// first, caller second — but asserts only what must hold in either order:
// the caller gave up, so the member sees the fence released.
func TestGrantDeliveredBeforeCancelIsHandedBack(t *testing.T) {
	c, m := pipe(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, "res")
		errc <- err
	}()
	acq := m.expect(transport.OpAcquire, "res")

	c.mu.Lock()
	m.grant(acq.id, 41)               // returns once the reader has the frame; it then waits for c.mu
	time.Sleep(10 * time.Millisecond) // ... and is queued on it
	cancel()                          // the caller wakes on ctx.Done and queues behind the reader
	time.Sleep(10 * time.Millisecond)
	c.mu.Unlock()

	f := m.read()
	if f.op == transport.OpCancel {
		// The caller won the lock after all and abandoned the request; the
		// reader hands the grant back instead.
		f = m.read()
	}
	if f.op != transport.OpRelease || f.payload != releasePayload(41, "res") {
		t.Fatalf("member read (op %d, %q), want the release of fence 41", f.op, f.payload)
	}
	m.write(transport.RespOK, f.id, nil)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
}

// TestFailWakesEveryPendingOnce: when the connection dies, every caller
// still waiting returns an error — each exactly once (a second delivery
// would block fail on the cap-1 channel and hang the test, a missing one
// would hang the caller) — whether it waits for a response of its own or
// in a lane behind its siblings' acquires; a lane whose callers all gave
// up is left alone, and the connection refuses further requests.
func TestFailWakesEveryPendingOnce(t *testing.T) {
	c, m := pipe(t)
	const waiting = 12
	var wg sync.WaitGroup
	errs := make(chan error, waiting)
	for i := 0; i < waiting; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch i % 3 {
			case 0:
				_, err = c.Acquire(context.Background(), "a")
			case 1:
				err = c.Release("b")
			default:
				_, _, err = c.TryAcquire("c")
			}
			errs <- err
		}(i)
	}
	// One more that gives up before the connection dies.
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, "abandoned")
		gaveUp <- err
	}()
	// The four acquires of "a" put two frames on the wire: the first
	// caller's own, then the order for a run that the other three wait
	// behind.
	var abandoned wireFrame
	for i := 0; i < waiting+1-2; i++ {
		if f := m.read(); f.payload == "abandoned" {
			abandoned = f
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		queued := 0
		if l := c.lanes[c.laneOf("a")]; l != nil {
			queued = l.n
		}
		c.mu.Unlock()
		if queued == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 callers queued in the lane", queued)
		}
	}
	cancel()
	if cn := m.expect(transport.OpCancel, ""); cn.id != abandoned.id {
		t.Fatalf("cancel names request %d, want %d", cn.id, abandoned.id)
	}
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Acquire = %v", err)
	}

	_ = m.conn.Close()
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		n++
		if err == nil {
			t.Error("a pending request returned success from a dead connection")
		}
	}
	if n != waiting {
		t.Fatalf("%d of %d pending requests returned", n, waiting)
	}
	<-c.done
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Err() = %v, want ErrClosed", err)
	}
	if _, err := c.Acquire(context.Background(), "late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire on a dead connection = %v, want ErrClosed", err)
	}
	c.mu.Lock()
	left := len(c.reqs)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d requests still registered after fail", left)
	}
}

// TestRecycledPendingIgnoresItsOldRequestID: entries are reused, request
// ids are not. A late or repeated response to an id whose entry has moved
// on must reach nobody — not the entry's new owner, and not the
// hand-back path.
func TestRecycledPendingIgnoresItsOldRequestID(t *testing.T) {
	c, m := pipe(t)
	acquire := func(ctx context.Context) (chan Hold, chan error) {
		holds, errs := make(chan Hold, 1), make(chan error, 1)
		go func() {
			h, err := c.Acquire(ctx, "res")
			holds <- h
			errs <- err
		}()
		return holds, errs
	}

	// Request 1 completes; its entry goes back to the free list.
	holds, errs := acquire(context.Background())
	first := m.expect(transport.OpAcquire, "res")
	m.grant(first.id, 11)
	if h, err := <-holds, <-errs; err != nil || h.Fence != 11 {
		t.Fatalf("first acquire = (%+v, %v)", h, err)
	}

	// Request 2 reuses the entry. A repeated grant for request 1 arrives
	// first and must not satisfy it.
	holds, errs = acquire(context.Background())
	second := m.expect(transport.OpAcquire, "res")
	if second.id == first.id {
		t.Fatalf("request id %d reused", first.id)
	}
	c.mu.Lock()
	reused := len(c.free) == 0 && len(c.reqs) == 1
	c.mu.Unlock()
	if !reused {
		t.Fatal("the second request did not take the recycled entry: the test no longer tests recycling")
	}
	m.grant(first.id, 99)
	m.grant(second.id, 22)
	if h, err := <-holds, <-errs; err != nil || h.Fence != 22 {
		t.Fatalf("second acquire = (%+v, %v), want fence 22 (99 was addressed to request %d)", h, err, first.id)
	}

	// Request 3 is abandoned and answered (canceled): the reader recycles
	// the entry. Request 4 reuses it; a late grant for request 3 must not
	// reach request 4, and must not be "handed back" either.
	ctx, cancel := context.WithCancel(context.Background())
	_, errs = acquire(ctx)
	third := m.expect(transport.OpAcquire, "res")
	cancel()
	m.expect(transport.OpCancel, "")
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("third acquire = %v", err)
	}
	m.write(transport.RespErr, third.id, []byte{transport.CodeCanceled})
	holds, errs = acquire(context.Background())
	fourth := m.expect(transport.OpAcquire, "res")
	m.grant(third.id, 77)
	m.grant(fourth.id, 44)
	if h, err := <-holds, <-errs; err != nil || h.Fence != 44 {
		t.Fatalf("fourth acquire = (%+v, %v), want fence 44", h, err)
	}
	// Nothing else was sent: the next frame the member reads is the one
	// this release writes, not a hand-back of fence 77.
	done := make(chan error, 1)
	go func() { done <- c.ReleaseHold(Hold{Resource: "res", Fence: 44}) }()
	rel := m.expect(transport.OpRelease, releasePayload(44, "res"))
	m.write(transport.RespOK, rel.id, nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConnectionDiesUnderQueuedWrites: one write is stuck mid-frame,
// more frames are queued behind it, and the connection dies. The queued
// frames are dropped, every caller is woken with an error, and Close
// returns.
func TestConnectionDiesUnderQueuedWrites(t *testing.T) {
	c, m := pipe(t)
	m.plug(c)
	const queued = 8
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() { errs <- c.Release("res") }()
	}
	// All eight are registered (and so queued, or about to be: the plug
	// owns the write turn either way).
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := len(c.reqs)
		c.mu.Unlock()
		if n == queued+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests registered", n, queued+1)
		}
	}
	_ = m.conn.Close()
	for i := 0; i < queued; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a release queued behind a dead write reported success")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("release %d never returned", i)
		}
	}
	_ = c.Close() // must return: the reader and the drain goroutine have both exited
	if err := c.Release("res"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Release after the connection died = %v, want ErrClosed", err)
	}
}

// TestWriteQueueKeepsOrder: frames that queue up behind a busy write
// leave in the order they were sent — an acquire before its own cancel,
// a release before the acquire that follows it. The member would
// otherwise cancel a request it has not seen, or queue an acquire behind
// the hold its release was about to free.
func TestWriteQueueKeepsOrder(t *testing.T) {
	c, m := pipe(t)
	unplug := m.plug(c)

	// Acquire, then give up: both frames queue behind the plug.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Acquire(ctx, "first"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
	// Release, then acquire again — the first halves of Release and
	// Acquire, which return as soon as the frame is queued.
	if _, _, err := c.send(transport.OpRelease, "second", 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.send(transport.OpAcquire, "second", 0); err != nil {
		t.Fatal(err)
	}

	unplug()
	acq := m.expect(transport.OpAcquire, "first")
	if cn := m.expect(transport.OpCancel, ""); cn.id != acq.id {
		t.Fatalf("cancel names request %d, want %d", cn.id, acq.id)
	}
	m.expect(transport.OpRelease, releasePayload(5, "second"))
	m.expect(transport.OpAcquire, "second")
}

package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dagmutex/internal/mutex"
)

// chanLink is a Link over a buffered channel, for driving the runtime
// without a real transport.
type chanLink struct {
	in      chan Envelope
	sent    []sentMsg
	sendErr error
}

type sentMsg struct {
	to mutex.ID
	m  mutex.Message
}

func newChanLink() *chanLink { return &chanLink{in: make(chan Envelope, 64)} }

func (l *chanLink) Send(to mutex.ID, m mutex.Message) error {
	if l.sendErr != nil {
		return l.sendErr
	}
	l.sent = append(l.sent, sentMsg{to: to, m: m})
	return nil
}

func (l *chanLink) Recv() (Envelope, bool) {
	e, ok := <-l.in
	return e, ok
}

func (l *chanLink) Close() { close(l.in) }

// ping is a trivial message.
type ping struct{ seq int }

func (ping) Kind() string { return "PING" }
func (ping) Size() int    { return 4 }

// echoNode is a stub protocol: Request grants immediately while idle;
// Deliver records messages and fails on seq < 0.
type echoNode struct {
	id        mutex.ID
	env       mutex.Env
	inCS      bool
	requested bool
	seen      []int
	grantOn   bool // grant on a later Deliver instead of on Request
}

func (n *echoNode) ID() mutex.ID { return n.id }

func (n *echoNode) Request() error {
	if n.inCS || n.requested {
		return mutex.ErrOutstanding
	}
	if n.grantOn {
		n.requested = true
		return nil // grant arrives later, via Deliver
	}
	n.inCS = true
	n.env.Granted(0)
	return nil
}

func (n *echoNode) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	return nil
}

func (n *echoNode) Deliver(from mutex.ID, m mutex.Message) error {
	p, ok := m.(ping)
	if !ok {
		return mutex.ErrUnexpectedMessage
	}
	if p.seq < 0 {
		return fmt.Errorf("%w: negative seq %d", mutex.ErrUnexpectedMessage, p.seq)
	}
	n.seen = append(n.seen, p.seq)
	if n.grantOn && n.requested && !n.inCS {
		n.requested = false
		n.inCS = true
		n.env.Granted(0)
	}
	return nil
}

func (n *echoNode) Storage() mutex.Storage { return mutex.Storage{Scalars: 1} }

func echoBuilder(grantOn bool) mutex.Builder {
	return func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		return &echoNode{id: id, env: env, grantOn: grantOn}, nil
	}
}

func TestNodeDeliversInOrderAndDrainsOnClose(t *testing.T) {
	link := newChanLink()
	b := echoBuilder(false)
	n, err := Start(7, b, mutex.Config{}, link, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		link.in <- Envelope{From: 1, Msg: ping{seq: i}}
	}
	n.Close() // close drains queued envelopes before the loop exits
	var seen []int
	_ = n.With(func(pn mutex.Node) error {
		seen = pn.(*echoNode).seen
		return nil
	})
	if len(seen) != 50 {
		t.Fatalf("delivered %d envelopes, want 50", len(seen))
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, s)
		}
	}
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireGrantsImmediately(t *testing.T) {
	link := newChanLink()
	b := echoBuilder(false)
	n, err := Start(1, b, mutex.Config{}, link, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Session()
	if _, err := h.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Acquire(context.Background()); !errors.Is(err, mutex.ErrOutstanding) {
		t.Fatalf("double acquire = %v, want ErrOutstanding", err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if s := h.Storage(); s.Scalars != 1 {
		t.Fatalf("storage = %+v", s)
	}
}

// TestAcquireFailsFastOnClusterError is the regression test for the
// fail-fast path: a delivery error recorded while an Acquire blocks must
// fail that Acquire immediately, not leave it waiting for its deadline.
func TestAcquireFailsFastOnClusterError(t *testing.T) {
	link := newChanLink()
	b := echoBuilder(true) // grant only arrives via Deliver
	n, err := Start(1, b, mutex.Config{}, link, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Session()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- acquireErr(h, ctx)
	}()
	// Let the Acquire issue its Request and block, then poison the loop.
	time.Sleep(10 * time.Millisecond)
	link.in <- Envelope{From: 2, Msg: ping{seq: -1}}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("acquire succeeded despite cluster error")
		}
		if !errors.Is(err, mutex.ErrUnexpectedMessage) {
			t.Fatalf("acquire error = %v, want the delivery error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire did not fail fast on cluster error")
	}
	if n.Err() == nil {
		t.Fatal("sink did not record the delivery error")
	}
}

// TestAcquirePrefersGrantOverStaleError: a grant already in hand wins
// over a previously recorded cluster error — the critical section was
// genuinely entered.
func TestAcquirePrefersGrantOverStaleError(t *testing.T) {
	link := newChanLink()
	b := echoBuilder(false) // Request grants synchronously
	sink := NewErrorSink()
	sink.Fail(errors.New("earlier failure elsewhere"))
	n, err := Start(1, b, mutex.Config{}, link, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Session()
	if _, err := h.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire with grant in hand = %v, want success", err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestSendErrorCapturedViaSink: a synchronous link send failure is
// recorded through the same error path as a delivery error.
func TestSendErrorCapturedViaSink(t *testing.T) {
	link := newChanLink()
	link.sendErr = errors.New("no route to peer")
	failing := func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		n := &echoNode{id: id, env: env, grantOn: true}
		env.Send(9, ping{seq: 1}) // fails synchronously
		return n, nil
	}
	n, err := Start(1, failing, mutex.Config{}, link, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Err() == nil {
		t.Fatal("send failure not captured via sink")
	}
	// And a subsequent Acquire fails fast on it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := n.Session().Acquire(ctx); err == nil {
		t.Fatal("acquire succeeded despite send failure")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire waited out its deadline instead of failing fast: %v", err)
	}
}

// TestGrantedRecoveryAfterTimedOutAcquire exercises the documented
// recovery path: the request stays outstanding after a context expiry,
// the grant arrives later, and the caller drains Granted and Releases.
func TestGrantedRecoveryAfterTimedOutAcquire(t *testing.T) {
	link := newChanLink()
	b := echoBuilder(true) // grant only arrives via Deliver
	n, err := Start(1, b, mutex.Config{}, link, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Session()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := h.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire = %v, want deadline exceeded", err)
	}
	// The "token" arrives late.
	link.in <- Envelope{From: 2, Msg: ping{seq: 1}}
	select {
	case <-h.Granted():
	case <-time.After(5 * time.Second):
		t.Fatal("late grant never arrived on Granted()")
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	// The slot is usable again: grant synchronously this time.
	_ = n.With(func(pn mutex.Node) error {
		pn.(*echoNode).grantOn = false
		return nil
	})
	if _, err := h.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorSinkFirstWins(t *testing.T) {
	s := NewErrorSink()
	if s.Err() != nil {
		t.Fatal("fresh sink has an error")
	}
	s.Fail(nil) // ignored
	if s.Err() != nil {
		t.Fatal("nil Fail recorded")
	}
	first := errors.New("first")
	s.Fail(first)
	s.Fail(errors.New("second"))
	if !errors.Is(s.Err(), first) {
		t.Fatalf("sink error = %v, want first", s.Err())
	}
	select {
	case <-s.Fired():
	default:
		t.Fatal("Fired not signaled")
	}
}

// TestAcquireErrorsCarryGrantPending: both Acquire failure modes that
// leave the request outstanding — context expiry and a cluster error —
// are marked with ErrGrantPending so callers (the lock service's slot
// reaper) know a grant may still arrive; pre-request failures are not.
func TestAcquireErrorsCarryGrantPending(t *testing.T) {
	link := newChanLink()
	b := echoBuilder(true)
	n, err := Start(1, b, mutex.Config{}, link, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Session()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = h.Acquire(ctx)
	if !errors.Is(err, ErrGrantPending) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out acquire = %v, want ErrGrantPending wrapping deadline", err)
	}
	// Drain the outstanding request so the next Acquire issues a new one.
	link.in <- Envelope{From: 2, Msg: ping{seq: 1}}
	<-h.Granted()
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}

	// Cluster-failure path: request issued, then the sink fires.
	done := make(chan error, 1)
	go func() { done <- acquireErr(h, context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	n.Sink().Fail(errors.New("boom"))
	err = <-done
	if !errors.Is(err, ErrGrantPending) {
		t.Fatalf("cluster-failed acquire = %v, want ErrGrantPending", err)
	}

	// Pre-request failure (request already outstanding): no sentinel.
	if _, err := h.Acquire(context.Background()); errors.Is(err, ErrGrantPending) {
		t.Fatalf("pre-request failure %v must not carry ErrGrantPending", err)
	}
}

// acquireErr adapts Session.Acquire to an error-only result for tests
// that only care about the failure mode.
func acquireErr(s *Session, ctx context.Context) error {
	_, err := s.Acquire(ctx)
	return err
}

// TestSlotFailedSessionFailsQueuedAcquirers: a caller queued behind a
// busy slot fails as soon as the cluster does — with the cluster's
// error, and without claiming a request is outstanding — instead of
// waiting out its context on a grant that may never be released.
func TestSlotFailedSessionFailsQueuedAcquirers(t *testing.T) {
	sink := NewErrorSink()
	n, err := Start(1, echoBuilder(false), mutex.Config{}, newChanLink(), sink)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sl := NewSlot(n.Session(), -1, 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sl.Acquire(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := sl.Acquire(ctx, "k")
		queued <- err
	}()
	for sl.waiters.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	boom := errors.New("peer crashed")
	sink.Fail(boom)
	select {
	case err := <-queued:
		if !errors.Is(err, boom) || errors.Is(err, ErrGrantPending) {
			t.Fatalf("queued acquire = %v, want the cluster's error and no pending grant", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire still waiting after the cluster failed")
	}
}

package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/runtime"
	"dagmutex/internal/transport"
)

// The lane battery: one connection, several callers on one resource, and
// a fake member (see member in client_test.go) that decides what reaches
// the wire when. Every frame the member reads is asserted, so a frame
// the connection should not have sent fails the next expect.

// run answers acquire id with a run of n fences starting at first.
func (m *member) run(id, first, expiry uint64, n uint32) {
	m.t.Helper()
	b := binary.BigEndian.AppendUint64(nil, first)
	b = binary.BigEndian.AppendUint64(b, expiry)
	m.write(transport.RespRun, id, binary.BigEndian.AppendUint32(b, n))
}

func releaseRunPayload(last uint64, used uint32, more bool, resource string) string {
	b := binary.BigEndian.AppendUint64(nil, last)
	b = binary.BigEndian.AppendUint32(b, used)
	if more {
		return string(append(b, transport.ReleaseRunMore)) + resource
	}
	return string(append(b, 0)) + resource
}

// ok answers the release the member reads next, which must be f.
func (m *member) ok(op byte, payload string) {
	m.t.Helper()
	m.write(transport.RespOK, m.expect(op, payload).id, nil)
}

// caller is one goroutine's acquire/release cycle, driven step by step.
type caller struct {
	t      *testing.T
	cancel context.CancelFunc
	got    chan Hold  // the acquire's hold
	failed chan error // or its error
	rel    chan bool  // true: release by fence; false: by name
	done   chan error // the release's result
}

// enter starts a caller acquiring key and returns once it is queued in
// the lane (the lane has n waiters).
func enter(t *testing.T, c *Conn, key string, n int) *caller {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	k := &caller{t: t, cancel: cancel, got: make(chan Hold, 1), failed: make(chan error, 1), rel: make(chan bool), done: make(chan error, 1)}
	go func() {
		h, err := c.Acquire(ctx, key)
		if err != nil {
			k.failed <- err
			return
		}
		k.got <- h
		if <-k.rel {
			k.done <- c.ReleaseHold(h)
		} else {
			k.done <- c.Release(key)
		}
	}()
	waitQueued(t, c, key, n)
	return k
}

func waitQueued(t *testing.T, c *Conn, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		c.mu.Lock()
		queued := 0
		if l := c.lanes[c.laneOf(key)]; l != nil {
			queued = l.n
		}
		c.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers queued for %q, want %d", queued, key, n)
		}
	}
}

// holds waits for the caller's grant and checks its fence.
func (k *caller) holds(fence uint64) Hold {
	k.t.Helper()
	select {
	case h := <-k.got:
		if h.Fence != fence {
			k.t.Fatalf("granted fence %d, want %d", h.Fence, fence)
		}
		return h
	case err := <-k.failed:
		k.t.Fatalf("acquire failed: %v", err)
	case <-time.After(10 * time.Second):
		k.t.Fatalf("no grant (want fence %d)", fence)
	}
	return Hold{}
}

// release lets the caller release and, for a release that sends nothing,
// waits for it to return.
func (k *caller) release() { k.rel <- true }

func (k *caller) released(want error) {
	k.t.Helper()
	select {
	case err := <-k.done:
		if want == nil && err != nil || want != nil && !errors.Is(err, want) {
			k.t.Fatalf("release = %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		k.t.Fatal("release never returned")
	}
}

// gaveUp cancels the caller's acquire and waits for it to return.
func (k *caller) gaveUp() {
	k.t.Helper()
	k.cancel()
	select {
	case err := <-k.failed:
		if !errors.Is(err, context.Canceled) {
			k.t.Fatalf("canceled acquire = %v", err)
		}
	case <-time.After(10 * time.Second):
		k.t.Fatal("canceled acquire never returned")
	}
}

// TestLaneHandsARunRoundInArrivalOrder: six callers on one key. The
// first goes out as it always did; the second finds it waiting and
// orders a run; the rest queue behind that order and send nothing. The
// run's fences then go to the waiters in arrival order with no frame but
// the next order — sent the moment more callers wait than fences are
// left — between its first grant and its one release, which reports
// every fence as used.
func TestLaneHandsARunRoundInArrivalOrder(t *testing.T) {
	c, m := pipe(t)
	var ks []*caller
	ks = append(ks, enter(t, c, "k", 1))
	own := m.expect(transport.OpAcquire, "k")
	ks = append(ks, enter(t, c, "k", 2))
	order := m.expect(transport.OpAcquireRun, "k")
	for n := 3; n <= 6; n++ {
		ks = append(ks, enter(t, c, "k", n))
	}

	// The first caller's own grant, ordinarily released.
	m.grant(own.id, 10)
	ks[0].holds(10)
	ks[0].release()
	m.ok(transport.OpRelease, releasePayload(10, "k"))
	ks[0].released(nil)

	// A run of four for five waiters.
	expiry := uint64(time.Now().Add(time.Minute).UnixNano())
	m.run(order.id, 20, expiry, 4)
	for i := 1; i <= 3; i++ {
		h := ks[i].holds(19 + uint64(i))
		if !h.Expires.Equal(time.Unix(0, int64(expiry))) {
			t.Fatalf("fence %d expires %v, want the run's one deadline", h.Fence, h.Expires)
		}
		ks[i].release()
		if i == 2 {
			// Two callers wait and one fence is left: the lane orders again
			// now, well ahead of the release that ends this run.
			order = m.expect(transport.OpAcquireRun, "k")
		}
		ks[i].released(nil) // a handoff: nothing else was sent, nothing is awaited
	}
	ks[4].holds(23)
	ks[4].release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(23, 4, true, "k"))
	ks[4].released(nil)

	m.run(order.id, 30, 0, 1)
	ks[5].holds(30)
	ks[5].release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(30, 1, false, "k"))
	ks[5].released(nil)

	c.mu.Lock()
	lanes, inflight := len(c.lanes), len(c.reqs)
	c.mu.Unlock()
	if lanes != 0 || inflight != 0 {
		t.Fatalf("%d lanes and %d requests left behind", lanes, inflight)
	}
}

// TestLaneRunEndsEarlyWhenTheQueueDrains: a run of nine meets three
// callers. The third release finds nobody waiting and ends the run with
// used = 3; a by-name release ends a run's hold like a release by fence,
// and a release naming a fence that is not the lane's current one is
// forwarded untouched.
func TestLaneRunEndsEarlyWhenTheQueueDrains(t *testing.T) {
	c, m := pipe(t)
	a := enter(t, c, "k", 1)
	own := m.expect(transport.OpAcquire, "k")
	b := enter(t, c, "k", 2)
	order := m.expect(transport.OpAcquireRun, "k")
	d := enter(t, c, "k", 3)
	m.grant(own.id, 10)
	a.holds(10)
	m.run(order.id, 20, 0, 9)
	if h := b.holds(20); !h.Expires.IsZero() {
		t.Fatalf("hold of a run without a lease expires %v", h.Expires)
	}

	// Somebody else's fence, and the first caller's ordinary one: neither
	// is the lane's current fence, both are forwarded as they are.
	errc := make(chan error, 1)
	go func() { errc <- c.ReleaseHold(Hold{Resource: "k", Fence: 21}) }()
	f := m.expect(transport.OpRelease, releasePayload(21, "k"))
	m.write(transport.RespErr, f.id, []byte{transport.CodeNotHeld})
	if err := <-errc; !errors.Is(err, runtime.ErrNotHeld) {
		t.Fatalf("release of a fence not yet handed out = %v, want ErrNotHeld from the member", err)
	}
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "k"))
	a.released(nil)

	b.rel <- false // by name: ends the lane's current hold, whoever asks
	b.released(nil)
	d.holds(21)
	e := enter(t, c, "k", 1) // a latecomer: the run has fences left, nothing is sent for it
	d.release()
	d.released(nil)
	e.holds(22)
	e.release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(28, 3, false, "k"))
	e.released(nil)
}

// TestLaneWaitersLeaveQuietly: a caller whose context ends while others
// still wait leaves without a frame; the one that empties the queue
// withdraws the order; and the run that order wins anyway goes straight
// back to the member, unused.
func TestLaneWaitersLeaveQuietly(t *testing.T) {
	c, m := pipe(t)
	a := enter(t, c, "k", 1)
	own := m.expect(transport.OpAcquire, "k")
	b := enter(t, c, "k", 2)
	order := m.expect(transport.OpAcquireRun, "k")
	d := enter(t, c, "k", 3)
	m.grant(own.id, 10)
	a.holds(10)

	d.gaveUp() // b still waits: the order stands, nothing is sent
	waitQueued(t, c, "k", 1)
	go b.cancel()
	if cn := m.expect(transport.OpCancel, ""); cn.id != order.id {
		t.Fatalf("cancel names request %d, want the order %d", cn.id, order.id)
	}
	b.gaveUp()
	m.run(order.id, 20, 0, 9) // crossed the cancel on the wire
	m.ok(transport.OpReleaseRun, releaseRunPayload(28, 0, false, "k"))

	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "k"))
	a.released(nil)
	c.mu.Lock()
	lanes := len(c.lanes)
	c.mu.Unlock()
	if lanes != 0 {
		t.Fatalf("%d lanes left behind", lanes)
	}
}

// TestLaneCanceledOrderServesLatecomers: the order is withdrawn, but
// before the member answers new callers arrive. The member's refusal is
// not theirs — they get an order of their own — and had the grant won
// the race instead, they would simply have been given it.
func TestLaneCanceledOrderServesLatecomers(t *testing.T) {
	c, m := pipe(t)
	a := enter(t, c, "k", 1)
	own := m.expect(transport.OpAcquire, "k")
	b := enter(t, c, "k", 2)
	order := m.expect(transport.OpAcquireRun, "k")
	m.grant(own.id, 10)
	a.holds(10)
	go b.cancel()
	m.expect(transport.OpCancel, "")
	b.gaveUp()

	d := enter(t, c, "k", 1) // behind a withdrawn order the member has yet to answer
	own = m.expect(transport.OpAcquire, "k")
	e := enter(t, c, "k", 2)
	m.write(transport.RespErr, order.id, []byte{transport.CodeCanceled})
	order = m.expect(transport.OpAcquireRun, "k")
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "k"))
	a.released(nil)
	m.grant(own.id, 11)
	d.holds(11)
	d.release()
	m.ok(transport.OpRelease, releasePayload(11, "k"))
	d.released(nil)
	m.run(order.id, 20, 0, 2)
	e.holds(20)
	e.release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(21, 1, false, "k"))
	e.released(nil)
}

// TestLaneStopsHandingOutPastHalfTheLease: once half of the lease that
// remained when the run arrived is gone, a release ends the run however
// many fences and callers are left; the callers get a run of their own.
func TestLaneStopsHandingOutPastHalfTheLease(t *testing.T) {
	c, m := pipe(t)
	a := enter(t, c, "k", 1)
	own := m.expect(transport.OpAcquire, "k")
	b := enter(t, c, "k", 2)
	order := m.expect(transport.OpAcquireRun, "k")
	d := enter(t, c, "k", 3)
	m.grant(own.id, 10)
	a.holds(10)
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "k"))
	a.released(nil)

	const lease = 200 * time.Millisecond
	m.run(order.id, 20, uint64(time.Now().Add(lease).UnixNano()), 9)
	b.holds(20)
	time.Sleep(lease/2 + 20*time.Millisecond)
	b.release()
	own = m.expect(transport.OpAcquire, "k") // for d, the one caller still waiting
	m.ok(transport.OpReleaseRun, releaseRunPayload(28, 1, true, "k"))
	b.released(nil)
	m.grant(own.id, 40)
	d.holds(40)
	d.release()
	m.ok(transport.OpRelease, releasePayload(40, "k"))
	d.released(nil)
}

// TestLaneLateReleaseOfAReplacedRun: the member reclaims a run whose
// holder sits on its fence, and grants the lane's next order. The new
// run serves the callers still waiting; the late release names the old
// run's last fence — what the member filed the expiry under — and brings
// back the member's verdict.
func TestLaneLateReleaseOfAReplacedRun(t *testing.T) {
	c, m := pipe(t)
	a := enter(t, c, "k", 1)
	own := m.expect(transport.OpAcquire, "k")
	b := enter(t, c, "k", 2)
	order := m.expect(transport.OpAcquireRun, "k")
	m.grant(own.id, 10)
	a.holds(10)
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "k"))
	a.released(nil)
	m.run(order.id, 20, 0, 2)
	b.holds(20)
	d := enter(t, c, "k", 1)
	b.release()
	b.released(nil)
	d.holds(21) // the run's last fence: d sits on it
	e := enter(t, c, "k", 1)
	own = m.expect(transport.OpAcquire, "k")
	f := enter(t, c, "k", 2)
	order = m.expect(transport.OpAcquireRun, "k")

	m.grant(own.id, 30) // the member has moved on: the old run is dead
	e.holds(30)
	e.release()
	m.ok(transport.OpRelease, releasePayload(30, "k"))
	e.released(nil)
	m.run(order.id, 40, 0, 9)
	f.holds(40)

	d.release()
	late := m.expect(transport.OpReleaseRun, releaseRunPayload(21, 2, false, "k"))
	m.write(transport.RespErr, late.id, []byte{transport.CodeLeaseExpired})
	d.released(runtime.ErrLeaseExpired)
	f.release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(48, 1, false, "k"))
	f.released(nil)
}

// TestRunlessMemberGetsAnAcquirePerCaller: a member whose hello names no
// shards, and so grants no runs, is never sent a marked acquire. However
// many callers wait in a lane, each has an ordinary acquire of its own in
// flight and an ordinary release: the connection's frames are one
// acquire and one release per caller, as before lanes.
func TestRunlessMemberGetsAnAcquirePerCaller(t *testing.T) {
	c, m := pipeHello(t, 0)
	ks := make([]*caller, 4)
	ids := make([]uint64, 4)
	for i := range ks {
		ks[i] = enter(t, c, "k", i+1)
		ids[i] = m.expect(transport.OpAcquire, "k").id
	}
	for i, k := range ks {
		fence := uint64(10 + i)
		m.grant(ids[i], fence)
		k.holds(fence)
		k.release()
		m.ok(transport.OpRelease, releasePayload(fence, "k"))
		k.released(nil)
	}
}

// TestEchoPatternNeverQueues pins what bench/probes.go does: one caller
// acquiring the same resource 300 times over without ever releasing,
// against a member that grants at once. Each acquire finds no lane, goes
// out as an ordinary acquire and returns with its grant; none waits for
// a release that will never come.
func TestEchoPatternNeverQueues(t *testing.T) {
	c, m := pipe(t)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			if _, err := c.Acquire(context.Background(), "res-0"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := uint64(1); i <= 300; i++ {
		m.grant(m.expect(transport.OpAcquire, "res-0").id, i)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	lanes, free := len(c.lanes), len(c.freeLanes)
	c.mu.Unlock()
	if lanes != 0 || free != 1 {
		t.Fatalf("%d lanes live and %d on the free list after 300 uncontended acquires, want 0 and the one recycled", lanes, free)
	}
}

// TestMalformedRunFrameEndsTheConnection: a run of no fences is not an
// answer but a corrupted stream.
func TestMalformedRunFrameEndsTheConnection(t *testing.T) {
	c, m := pipe(t)
	a := enter(t, c, "k", 1)
	own := m.expect(transport.OpAcquire, "k")
	m.run(own.id, 20, 0, 0)
	select {
	case <-a.failed:
	case h := <-a.got:
		t.Fatalf("acquire returned hold %+v from a run of zero fences", h)
	case <-time.After(10 * time.Second):
		t.Fatal("acquire never returned")
	}
	<-c.done
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Err() = %v, want ErrClosed", err)
	}
}

// autoMember is a member that runs itself: one holder at a time, acquires
// served in arrival order, every marked acquire answered with a run of
// runLen fences, and a count of what it read.
type autoMember struct {
	m      *member
	runLen uint32

	acquires, orders, releases, runReleases, used int
	withdrawn, withdrawnOrders                    int // canceled before they were granted
}

// serve answers frames until the connection closes.
func (a *autoMember) serve(done chan<- struct{}) {
	defer close(done)
	type waiting struct {
		id     uint64
		marked bool
	}
	var queue []waiting
	held, fence := false, uint64(0)
	for {
		op, id, payload, err := transport.ReadClientFrame(a.m.br)
		if err != nil {
			return
		}
		switch op {
		case transport.OpAcquire:
			a.acquires++
			queue = append(queue, waiting{id, false})
		case transport.OpAcquireRun:
			a.orders++
			queue = append(queue, waiting{id, true})
		case transport.OpRelease:
			a.releases++
			held = false
			a.m.write(transport.RespOK, id, nil)
		case transport.OpReleaseRun:
			a.runReleases++
			a.used += int(binary.BigEndian.Uint32(payload[8:12]))
			held = false
			a.m.write(transport.RespOK, id, nil)
		case transport.OpCancel:
			for i, w := range queue {
				if w.id == id {
					if w.marked {
						a.withdrawnOrders++
					} else {
						a.withdrawn++
					}
					queue = append(queue[:i], queue[i+1:]...)
					a.m.write(transport.RespErr, id, []byte{transport.CodeCanceled})
					break
				}
			}
		}
		if !held && len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			held = true
			if w.marked {
				a.m.run(w.id, fence+1, 0, a.runLen)
				fence += uint64(a.runLen)
			} else {
				fence++
				a.m.grant(w.id, fence)
			}
		}
	}
}

// TestLaneRotatesAHotKeyWithTwoFramesPerRun: eight callers loop on one
// key. Whatever the interleaving, at most one of them is inside at a
// time, fences only rise, and once the crowd has formed the wire carries
// one order and one release per run — not an acquire and a release per
// grant.
func TestLaneRotatesAHotKeyWithTwoFramesPerRun(t *testing.T) {
	const callers, cycles, runLen = 8, 200, 9
	c, m := pipe(t)
	_ = m.conn.SetDeadline(time.Now().Add(2 * time.Minute))
	am := &autoMember{m: m, runLen: runLen}
	served := make(chan struct{})
	go am.serve(served)

	var inside, lastFence, entries atomic.Int64
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			for j := 0; j < cycles; j++ {
				h, err := c.Acquire(context.Background(), "hot")
				if err != nil {
					errs <- err
					return
				}
				if n := inside.Add(1); n != 1 {
					errs <- fmt.Errorf("%d callers inside at once", n)
					return
				}
				if prev := lastFence.Swap(int64(h.Fence)); int64(h.Fence) <= prev {
					errs <- fmt.Errorf("fence %d after %d", h.Fence, prev)
					return
				}
				entries.Add(1)
				inside.Add(-1)
				if err := c.ReleaseHold(h); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	<-served
	if got := entries.Load(); got != callers*cycles {
		t.Fatalf("%d entries, want %d", got, callers*cycles)
	}
	// A caller that releases into an empty queue may leave an acquire in
	// flight with nobody to take its grant; it is withdrawn, not granted.
	if am.orders-am.withdrawnOrders != am.runReleases {
		t.Fatalf("%d orders (%d withdrawn) but %d run releases: every run is ended by exactly one frame", am.orders, am.withdrawnOrders, am.runReleases)
	}
	if am.acquires-am.withdrawn != am.releases {
		t.Fatalf("%d ordinary acquires (%d withdrawn) but %d ordinary releases", am.acquires, am.withdrawn, am.releases)
	}
	// Every entry was a fence out of a run or an ordinary grant; beyond
	// them only a grant that crossed its own withdrawal and went straight
	// back, released unused.
	if back := am.used + am.releases - callers*cycles; back < 0 || back > am.acquires {
		t.Fatalf("runs report %d fences used and %d grants were ordinarily released: %d entries unaccounted for", am.used, am.releases, -back)
	}
	// A grant outside a run costs two frames, one inside 2/9 when the run is
	// full; the tail, where callers finish and runs end early, is a few runs.
	if frames := am.acquires + am.releases + am.orders + am.runReleases; frames > callers*cycles/2 {
		t.Fatalf("%d request frames for %d grants (%d ordinary, %d runs): the key is not rotating inside the connection",
			frames, callers*cycles, am.acquires, am.orders)
	}
	t.Logf("%d grants: %d ordinary, %d runs using %d fences", callers*cycles, am.acquires, am.orders, am.used)
}

package client

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"dagmutex/internal/explore"
	"dagmutex/internal/runtime"
	"dagmutex/internal/transport"
)

// The lane checker composes the code that hands out grants at both ends
// of a dialed connection and explores every interleaving of a small
// scope exhaustively: on the dialing side the lane machine (lane.go); on
// the member side transport's connection rules (transport.ConnHolds) in
// front of the hold machine runtime.Slot drives (runtime.Hold), over a
// stub session. It plays the drivers' parts itself — Conn's, the
// connection server's workers, and Slot's semaphore and waiter count —
// so what it explores is the machines' own decision code, with no
// goroutine, socket or clock.
//
// A caller arrives, holds, and releases by fence, once per cycle; it may
// give up while queued (a cancel). Frames a caller's step leaves to send
// reach the wire one at a time, after the step, as Conn writes them once
// it has let go of its lock; frames of the reader's steps are queued at
// once, as QueueClientFrame does. The connection may die at any point.
//
// The member reads frames in order and runs each on a worker of its own,
// as the connection server does, so an acquire and the ReleaseRun read
// after it race. An acquire queues for the slot, takes it, and waits for
// its grant — the pipelined one, or one it requests — which it answers
// or, having lost to its cancel or to the disconnect, hands back. A
// canceled acquire may give up instead, queued or waiting; a release
// steps the machine and frees the slot in a later move, as Slot frees it
// after letting go of its lock. The stub session's token leaves at every
// protocol release, so a grant it requests lands as a move of its own.
// The sweeper ticks only once the clock has jumped past every deadline,
// so that a grant left waiting for the sweep shows at rest.
//
// The world is an explore.State: the search (internal/explore) visits
// every reachable state once, depth first, and on a violation again
// breadth first, which reports the shortest trace that reaches it.
type checkBound struct {
	keys    []string // one per caller: its resource, all of one domain
	cycles  int      // acquire/release cycles per caller
	budget  int      // the member's cohort budget: runs of up to budget+1
	cancels int      // callers that may give up, over the whole run
	losses  int      // connection losses
	jumps   int      // clock jumps past every lease
}

// The default bound is two scopes. Three callers on keys a, b, a, with a
// cancel, a connection loss and a lease reclaimed, bring the member at
// most three acquires, too few to pass a cohort budget of 2; four callers
// on one key with no fault reach the fourth grant of a token visit.
var defaultBound = []checkBound{
	{keys: []string{"a", "b", "a"}, cycles: 1, budget: 2, cancels: 1, losses: 1, jumps: 1},
	{keys: []string{"a", "a", "a", "a"}, cycles: 1, budget: 2},
}

type cstate uint8

const (
	cIdle cstate = iota
	cWaiting
	cHolding
	cReleasing
	cDone
)

type mcaller struct {
	state cstate
	left  int    // cycles still to start
	fence uint64 // cHolding: the fence held
	rel   uint64 // cReleasing: the id its release went under
	out   []action
}

// mblock is a grant the member answered: fences first..last, the token
// visit they were granted in (its first fence), which of them went to a
// caller, and whether a release of it was answered or it went straight
// back.
type mblock struct {
	first, last, visit uint64
	handed             uint32 // bit i: fence first+i went to a caller
	ended              bool
}

type mreply struct {
	id uint64
	r  resp
}

type wstate uint8

const (
	wQueued  wstate = iota // an acquire waits for the slot
	wWaiting               // it has the slot and waits for its grant
	wRelease               // a release, to run
	wFree                  // a release that ended its hold frees the slot
)

// worker is a frame the member read, on the worker that runs it.
type worker struct {
	a        action
	state    wstate
	canceled bool // an acquire's cancel was read, or the connection died
	recheck  bool // wFree: the free looks for a grant nobody is left to claim
}

// world is one state of the check.
type world struct {
	b   *checkBound
	l   lane
	ids uint64
	cs  []mcaller
	reg []regd   // what the connection has registered, by request id
	c2m []action // frames on their way to the member
	m2c []mreply // answers on their way to the connection

	conn   transport.ConnHolds
	hold   runtime.Hold
	work   []worker
	taken  bool   // the slot's semaphore
	gen    uint64 // the stub session's fencing generation
	away   bool   // its token is at another member
	asked  bool   // its request is outstanding
	landed uint64 // the grant deposited for the slot, 0: none
	stray  bool   // landed after everyone it was for gave up: the sweep's
	// promised: a ReleaseRun said more with nobody queued, and no acquire
	// has been read since.
	promised bool
	visit    uint64 // the first fence of the token's latest visit
	blocks   []mblock
	now      int64  // both sides' clock, unix nanos
	lost     bool   // the connection died
	budget   [3]int // cancels, losses, clock jumps left
	log      *[]string
}

// regd is a registered request: a lane's acquire (who -1) or caller
// who's release.
type regd struct {
	id  uint64
	who int
}

const (
	lease   = 1000
	farDate = 1 << 40
)

func newWorld(b *checkBound) *world {
	w := &world{b: b, hold: runtime.NewHold(1, lease, b.budget), now: 1, budget: [3]int{b.cancels, b.losses, b.jumps}}
	w.l.runs = true
	for range b.keys {
		w.cs = append(w.cs, mcaller{left: b.cycles})
	}
	return w
}

type mkind uint8

const (
	mArrive  mkind = iota // caller i asks for its key
	mWrite                // caller i writes its next frame
	mRelease              // caller i releases its hold
	mCancel               // caller i gives up while queued
	mRead                 // the connection reads the next answer
	mServe                // the member reads the next frame and starts a worker
	mTake                 // worker i's acquire takes the slot
	mGrant                // worker i's acquire takes its landed grant
	mGiveUp               // worker i's canceled acquire gives up
	mRun                  // worker i runs its release
	mFree                 // worker i frees the slot its release ended
	mLand                 // the session's requested grant lands
	mSweep                // the sweeper ticks
	mJump                 // the clock passes every deadline granted
	mLose                 // the connection dies
)

type move struct {
	kind mkind
	i    int
}

func (m move) String() string {
	return [...]string{"arrive", "write", "release", "cancel", "read", "serve", "take", "grant", "give up",
		"run", "free", "land", "sweep", "jump", "lose"}[m.kind] + fmt.Sprint(" ", m.i)
}

// Moves lists every move enabled in w.
func (w *world) Moves() []move {
	var ms []move
	for i, c := range w.cs {
		switch {
		case c.state == cIdle:
			ms = append(ms, move{mArrive, i})
		case c.state == cHolding:
			ms = append(ms, move{mRelease, i})
		case c.state == cWaiting && w.budget[0] > 0 && !w.lost:
			ms = append(ms, move{mCancel, i})
		}
		if len(c.out) > 0 {
			ms = append(ms, move{mWrite, i})
		}
	}
	if len(w.m2c) > 0 {
		ms = append(ms, move{mRead, 0})
	}
	if len(w.c2m) > 0 {
		ms = append(ms, move{mServe, 0})
	}
	for i, k := range w.work {
		switch {
		case k.state == wQueued && !w.taken:
			ms = append(ms, move{mTake, i})
		case k.state == wWaiting && w.landed != 0:
			ms = append(ms, move{mGrant, i})
		case k.state == wRelease:
			ms = append(ms, move{mRun, i})
		case k.state == wFree:
			ms = append(ms, move{mFree, i})
		}
		if k.canceled && k.state <= wWaiting {
			ms = append(ms, move{mGiveUp, i})
		}
	}
	if w.asked {
		ms = append(ms, move{mLand, 0})
	}
	if w.now == farDate && w.sweeps() {
		ms = append(ms, move{mSweep, 0})
	}
	if w.now < farDate && w.budget[2] > 0 && (w.hold.Held || w.hold.Abandoned && w.landed != 0) {
		ms = append(ms, move{mJump, 0})
	}
	if w.budget[1] > 0 && !w.lost && len(ms) > 0 {
		ms = append(ms, move{mLose, 0})
	}
	return ms
}

// sweeps reports whether a sweep would do anything: it asks a copy of
// the machine, over a session that changes nothing.
func (w *world) sweeps() bool {
	h, d := w.hold, runtime.Done{}
	h.Expired = slices.Clip(h.Expired)
	h.Sweep(probe{w}, time.Unix(0, w.now), w.waiters(), &d)
	return d.Free
}

type probe struct{ w *world }

func (p probe) Regrant(bool) (uint64, bool) { return 0, false }
func (p probe) Release(bool) error          { return nil }
func (p probe) Claim(sem bool) (runtime.Grant, bool) {
	return runtime.Grant{}, p.w.landed != 0 && !(sem && p.w.taken)
}

func (w *world) waiters() int {
	n := 0
	for _, k := range w.work {
		if k.state == wQueued {
			n++
		}
	}
	return n
}

func (w *world) logf(format string, args ...any) {
	if w.log != nil {
		*w.log = append(*w.log, fmt.Sprintf(format, args...))
	}
}

// step runs e through the lane as Conn.step does. A caller's frames (i
// >= 0) wait in its out until it writes them; the reader's go out at
// once.
func (w *world) step(e event, i int) ([]action, error) {
	acts := w.l.step(e, &w.ids, nil)
	w.logf("  lane: %s", fmtActs(acts))
	var frames []action
	for _, a := range acts {
		switch a.kind {
		case handFence:
			if err := w.hand(int(a.h), a.fence); err != nil {
				return nil, err
			}
		case failWaiter:
			w.cs[a.h].state = cDone
		case refuseRelease:
			return nil, fmt.Errorf("caller %d's release of its own hold refused", i)
		case sendAcquire:
			w.reg = append(w.reg, regd{a.id, -1})
			fallthrough
		default:
			frames = append(frames, a)
		}
	}
	if i >= 0 {
		w.cs[i].out = append(w.cs[i].out, frames...)
	} else {
		w.c2m = append(w.c2m, frames...)
	}
	return frames, nil
}

// hand gives caller i fence f and checks that nobody had it before, that
// the member has not ended its hold, and that nobody else holds the
// domain.
func (w *world) hand(i int, f uint64) error {
	b := w.blockOf(f)
	switch bit := uint32(1) << (f - b.first); {
	case b.handed&bit != 0:
		return fmt.Errorf("fence %d handed out twice", f)
	case b.ended:
		return fmt.Errorf("fence %d handed out after the member ended its hold", f)
	default:
		b.handed |= bit
	}
	w.cs[i].state, w.cs[i].fence = cHolding, f
	holders := 0
	for _, c := range w.cs {
		if c.state == cHolding && w.live(c.fence) {
			holders++
		}
	}
	if holders > 1 {
		return fmt.Errorf("%d callers hold the domain at once", holders)
	}
	return w.bypass(b.visit)
}

// bypass checks that the token's visit from fence v on has brought the
// connection at most 1 + budget grants, the rest of the cluster waiting:
// an ordinary grant counts one, a run the fences it handed out — at
// least one, as the member counts a run given back unused.
func (w *world) bypass(v uint64) error {
	n := 0
	for _, b := range w.blocks {
		if b.visit == v {
			n += max(1, bits.OnesCount32(b.handed))
		}
	}
	if n > 1+w.b.budget {
		return fmt.Errorf("one token visit brought the connection %d grants, past a cohort budget of %d", n, w.b.budget)
	}
	return nil
}

// live reports whether f is a fence of the hold the machine has.
func (w *world) live(f uint64) bool {
	h := &w.hold
	return h.Held && h.Fence-uint64(h.Run) < f && f <= h.Fence
}

func (w *world) blockOf(f uint64) *mblock {
	for i := range w.blocks {
		if b := &w.blocks[i]; b.first <= f && f <= b.last {
			return b
		}
	}
	panic(fmt.Sprintf("fence %d was never granted", f))
}

// next ends caller i's cycle.
func (w *world) next(i int) {
	c := &w.cs[i]
	c.state = cDone
	if c.left > 0 && !w.lost {
		c.state = cIdle
	}
}

// Regrant, Claim and Release make w the stub session a Hold calls: a
// regrant's grant lands at once, and a protocol release sends the token
// away, a re-request with it.
func (w *world) Regrant(take bool) (uint64, bool) {
	w.logf("  member: regrant, taken %v", take)
	if w.gen++; !take {
		w.landed = w.gen
	}
	return w.gen, true
}

func (w *world) Claim(sem bool) (runtime.Grant, bool) {
	g := runtime.Grant{Generation: w.landed}
	ok := w.landed != 0 && !(sem && w.taken)
	if ok {
		w.landed, w.taken = 0, w.taken || sem
	}
	w.logf("  member: claim a landed grant: %v", ok)
	return g, ok
}

func (w *world) Release(again bool) error {
	w.logf("  member: release, requesting again %v", again)
	w.away, w.asked = true, again
	return nil
}

// finish carries out what a step of the machine left, as Slot.finish
// does: it frees the slot, then looks again for a grant nobody is left
// to claim.
func (w *world) finish(d *runtime.Done) {
	if d.Free {
		w.taken = false
		if d.Recheck {
			w.left()
		}
	}
}

// left and release step the machine's entry point as Slot does, and
// carry out what it leaves.
func (w *world) left() {
	var d runtime.Done
	w.hold.Left(w, w.waiters(), &d)
	w.finish(&d)
}

func (w *world) release(key string, fence uint64) {
	var d runtime.Done
	_ = w.hold.Release(w, key, fence, 1, false, w.waiters(), &d)
	w.finish(&d)
}

// deposit is the stub session's grant of a request: a token visit begins.
func (w *world) deposit() {
	w.gen++
	w.landed, w.visit, w.away, w.asked = w.gen, w.gen, false, false
}

// answer sends the connection r for request id.
func (w *world) answer(id uint64, r resp) {
	if !w.lost {
		w.m2c = append(w.m2c, mreply{id, r})
	}
}

// refusal is the wire answer of an error code.
func refusal(code byte) resp { return resp{op: transport.RespErr, ok: true, code: code} }

// Apply makes move m, reporting the invariant it breaks, if any.
func (w *world) Apply(m move) error {
	w.logf("%v", m)
	defer w.normalize()
	switch m.kind {
	case mArrive:
		c := &w.cs[m.i]
		if w.lost {
			c.state = cDone // Acquire on a dead connection fails at once
			return nil
		}
		c.state, c.left = cWaiting, c.left-1
		_, err := w.step(event{kind: evArrive, h: handle(m.i), key: w.b.keys[m.i]}, m.i)
		return err
	case mWrite:
		c := &w.cs[m.i]
		w.c2m, c.out = append(w.c2m, c.out[0]), c.out[1:]
	case mRelease:
		c, f := &w.cs[m.i], w.cs[m.i].fence
		w.next(m.i) // it lets go first; with the lanes dead, the release fails
		if w.lost {
			return nil
		}
		frames, err := w.step(event{kind: evRelease, key: w.b.keys[m.i], fence: f, now: w.now}, m.i)
		if err != nil || len(frames) == 0 {
			return err // handed on: nothing to wait for
		}
		c.state, c.rel = cReleasing, frames[len(frames)-1].id
		w.reg = append(w.reg, regd{c.rel, m.i})
	case mCancel:
		w.budget[0]--
		w.cs[m.i].state = cDone
		_, err := w.step(event{kind: evLeave, h: handle(m.i)}, m.i)
		return err
	case mRead:
		a := w.m2c[0]
		w.m2c = w.m2c[1:]
		for j, rg := range w.reg {
			if rg.id != a.id {
				continue
			}
			w.reg = append(w.reg[:j], w.reg[j+1:]...)
			if rg.who >= 0 {
				w.next(rg.who)
				return nil
			}
			_, err := w.step(event{kind: evAnswer, id: a.id, r: a.r, now: w.now}, -1)
			return err
		}
	case mServe:
		a := w.c2m[0]
		w.c2m = w.c2m[1:]
		switch a.kind {
		case sendAcquire:
			w.work, w.promised = append(w.work, worker{a: a}), false
		case sendCancel:
			for j, k := range w.work {
				if k.a.kind == sendAcquire && k.a.id == a.id {
					w.work[j].canceled = true
				}
			}
		case endHold:
			w.work = append(w.work, worker{a: a, state: wRelease})
		}
	case mTake:
		w.taken, w.work[m.i].state = true, wWaiting
		switch _, pipelined, _ := w.hold.Take(w, false); {
		case pipelined: // it awaits the pipelined grant
		case w.away:
			w.asked = true // it requests, and the grant travels
		default:
			w.deposit() // it requests, and the token is here
		}
	case mGrant:
		return w.grant(m.i)
	case mGiveUp:
		k := w.work[m.i]
		w.work = slices.Delete(w.work, m.i, m.i+1)
		if k.state == wWaiting {
			w.hold.Abandon()
		} else {
			w.left()
		}
		w.answer(k.a.id, refusal(transport.CodeCanceled))
	case mRun:
		return w.run(m.i)
	case mFree:
		k := w.work[m.i]
		w.work = slices.Delete(w.work, m.i, m.i+1)
		w.finish(&runtime.Done{Free: true, Recheck: k.recheck})
		w.answer(k.a.id, resp{op: transport.RespOK, ok: true})
	case mLand:
		w.deposit()
		w.stray = w.hold.Pending && w.waiters() == 0 && !w.taken && !w.promised
	case mSweep:
		var d runtime.Done
		w.hold.Sweep(w, time.Unix(0, w.now), w.waiters(), &d)
		w.finish(&d)
	case mJump:
		w.budget[2]--
		w.now = farDate
	case mLose:
		w.budget[1]--
		w.lost = true
		if _, err := w.step(event{kind: evLost, r: resp{op: transport.RespErr, ok: true}}, -1); err != nil {
			return err
		}
		for i := range w.cs {
			if w.cs[i].out = nil; w.cs[i].state != cHolding {
				w.cs[i].state = cDone
			}
		}
		w.reg, w.c2m, w.m2c, w.promised = nil, nil, nil, false
		// The server tears the connection down: it cancels what is in
		// flight and releases what it holds.
		for j := range w.work {
			w.work[j].canceled = true
		}
		for key, h := range w.conn.Close() {
			w.release(key, h.Fence)
		}
	}
	return nil
}

// normalize ends every move, so that one state has one form: a grant that
// is no longer pending is not the sweep's, a served waiter's slot in the
// lane's queue is capacity, not state, and an acquire answered or
// withdrawn can match nothing again.
func (w *world) normalize() {
	w.stray = w.stray && w.hold.Pending
	l := &w.l
	l.q = l.waiting()
	if l.kept != l.order.id && !slices.ContainsFunc(l.ids, func(r laneReq) bool { return r.id == l.kept }) {
		l.kept = 0
	}
}

// grant is worker i's acquire taking its grant: the machine admits it
// (reserving a run for an order), and the connection rules answer it or
// hand it straight back.
func (w *world) grant(i int) error {
	k := w.work[i]
	w.work = slices.Delete(w.work, i, i+1)
	g := runtime.Grant{Generation: w.landed, At: time.Unix(0, w.now)}
	w.landed = 0
	run := w.hold.Admit(w, k.a.key, &g, k.a.run)
	h := transport.ConnHold{Fence: w.hold.Fence, Run: uint32(run)}
	answer, back := w.conn.Granted(k.a.key, h, k.canceled)
	w.blocks = append(w.blocks, mblock{first: g.Generation, last: h.Fence, visit: w.visit, ended: back})
	if back {
		w.release(k.a.key, h.Fence)
	}
	r := resp{op: transport.RespGrant, ok: true, fence: g.Generation, expiry: uint64(w.now + lease)}
	switch {
	case !answer:
		r = refusal(transport.CodeCanceled)
	case k.a.run:
		r.op, r.run = transport.RespRun, h.Run
	}
	w.answer(k.a.id, r)
	return w.bypass(w.visit)
}

// run is worker i's release, checked against what its hold handed out.
func (w *world) run(i int) error {
	k := &w.work[i]
	a := k.a
	var b *mblock
	for j := range w.blocks {
		if x := &w.blocks[j]; !x.ended && x.last == a.fence {
			b = x
		}
	}
	switch {
	case b == nil:
	case a.run && b.handed != 1<<a.used-1:
		return fmt.Errorf("ReleaseRun of fences %d..%d reports %d used, but handed out %b", b.first, b.last, a.used, b.handed)
	case !a.run && b.handed > 1:
		return fmt.Errorf("a Release ends fences %d..%d, but handed out %b", b.first, b.last, b.handed)
	}
	used, more, held := int(w.conn.Ended(a.key, a.fence, a.used)), a.run && a.more, w.hold.HoldState
	if !a.run {
		used = 1
	}
	var d runtime.Done
	err := w.hold.Release(w, a.key, a.fence, used, more, w.waiters(), &d)
	expired := errors.Is(err, runtime.ErrLeaseExpired)
	if b != nil && (d.Free || expired) {
		b.ended = true
	}
	if d.Free {
		for j, c := range w.cs {
			if c.state == cHolding && held.Fence-uint64(held.Run) < c.fence && c.fence <= held.Fence {
				return fmt.Errorf("the hold of fences %d..%d ends while caller %d holds fence %d", held.Fence-uint64(held.Run)+1, held.Fence, j, c.fence)
			}
		}
		k.state, k.recheck = wFree, d.Recheck
		w.promised = more && w.waiters() == 0
		return nil
	}
	code := transport.CodeNotHeld
	if expired {
		code = transport.CodeLeaseExpired
	}
	w.answer(a.id, refusal(code))
	w.work = slices.Delete(w.work, i, i+1)
	return nil
}

// Quiescent checks a state with no move left.
func (w *world) Quiescent() error {
	for i, c := range w.cs {
		if c.state != cDone {
			return fmt.Errorf("caller %d is left waiting (state %d)", i, c.state)
		}
	}
	if h := &w.hold; h.Held {
		return fmt.Errorf("the member still holds fences %d..%d and nobody waits", h.Fence-uint64(h.Run)+1, h.Fence)
	}
	if w.lost {
		return nil // a more promise the loss broke is the sweep's
	}
	switch {
	case w.promised:
		return fmt.Errorf("a ReleaseRun promised more and no acquire followed")
	case w.hold.Pending && !w.stray:
		return fmt.Errorf("a pipelined grant waits for the sweep: nobody claimed or adopted it")
	case !w.l.idle():
		return fmt.Errorf("the lane is not idle: %+v", w.l)
	}
	for _, b := range w.blocks {
		if !b.ended {
			return fmt.Errorf("fences %d..%d were never released or reported", b.first, b.last)
		}
	}
	return nil
}

func fmtActs(acts []action) string {
	var parts []string
	for _, a := range acts {
		switch a.kind {
		case sendAcquire:
			op := "acquire"
			if a.run {
				op = "order"
			}
			parts = append(parts, fmt.Sprintf("%s #%d %s", op, a.id, a.key))
		case sendCancel:
			parts = append(parts, fmt.Sprintf("cancel #%d", a.id))
		case handFence:
			parts = append(parts, fmt.Sprintf("hand %d to caller %d", a.fence, a.h))
		case failWaiter:
			parts = append(parts, fmt.Sprintf("fail caller %d", a.h))
		case endHold:
			if a.run {
				parts = append(parts, fmt.Sprintf("#%d ReleaseRun(%s, %d, used %d, more %v)", a.id, a.key, a.fence, a.used, a.more))
			} else {
				parts = append(parts, fmt.Sprintf("#%d Release(%s, %d)", a.id, a.key, a.fence))
			}
		case refuseRelease:
			parts = append(parts, "refuse")
		}
	}
	if parts == nil {
		return "-"
	}
	return strings.Join(parts, "; ")
}

// Encode walks every field of w that is state (not b or log). Apply
// leaves w in the one form it reads (normalize).
func (w *world) Encode(b []byte) []byte {
	c := &explore.Coder{Buf: b}
	act := func(a action) {
		explore.Num(c, a.kind)
		explore.Bit(c, a.run)
		explore.Bit(c, a.more)
		explore.Num(c, a.h)
		explore.Num(c, a.used)
		explore.Num(c, a.id)
		explore.Num(c, a.fence)
		explore.Num(c, a.expiry)
		explore.Str(c, a.key)
	}
	req := func(r laneReq) { explore.Num(c, r.id); explore.Str(c, r.key) }
	hold := func(r run) {
		explore.Num(c, r.cur)
		explore.Num(c, r.last)
		explore.Num(c, r.used)
		explore.Str(c, r.key)
		explore.Str(c, r.holder)
		explore.Bit(c, r.grant)
	}
	l := &w.l
	explore.Bit(c, l.runs)
	explore.List(c, l.q, func(x waiter) { explore.Num(c, x.h); explore.Str(c, x.key) })
	explore.List(c, l.ids, req)
	req(l.order)
	explore.List(c, l.zombies, req)
	explore.Num(c, l.kept)
	explore.Bit(c, l.held)
	hold(l.run)
	hold(l.stale)
	explore.Num(c, l.next)
	explore.Num(c, l.expiry)
	explore.Num(c, l.until)
	explore.Num(c, w.ids)
	explore.List(c, w.cs, func(x mcaller) {
		explore.Num(c, x.state)
		explore.Num(c, x.left)
		explore.Num(c, x.fence)
		explore.Num(c, x.rel)
		explore.List(c, x.out, act)
	})
	explore.List(c, w.reg, func(r regd) { explore.Num(c, r.id); explore.Num(c, r.who) })
	explore.List(c, w.c2m, act)
	explore.List(c, w.m2c, func(r mreply) {
		explore.Num(c, r.id)
		explore.Num(c, r.r.op)
		explore.Bit(c, r.r.ok)
		explore.Num(c, r.r.code)
		explore.Num(c, r.r.fence)
		explore.Num(c, r.r.expiry)
		explore.Num(c, r.r.run)
	})
	explore.Map(c, w.conn.Holds, func(h transport.ConnHold) { explore.Num(c, h.Fence); explore.Num(c, h.Run) })
	explore.Bit(c, w.conn.Closed)
	h := &w.hold.HoldState
	explore.Bit(c, h.Held)
	explore.Str(c, h.Key)
	explore.Num(c, h.Fence)
	explore.Num(c, h.Run)
	explore.Time(c, h.Expires)
	explore.Time(c, h.GrantedAt)
	explore.Bit(c, h.Pending)
	explore.Num(c, h.Streak)
	explore.Bit(c, h.Abandoned)
	explore.List(c, h.Expired, func(m runtime.HoldMarker) { explore.Str(c, m.Key); explore.Num(c, m.Fence); explore.Num(c, m.Run) })
	explore.List(c, w.work, func(k worker) {
		act(k.a)
		explore.Num(c, k.state)
		explore.Bit(c, k.canceled)
		explore.Bit(c, k.recheck)
	})
	for _, v := range []bool{w.taken, w.away, w.asked, w.stray, w.promised, w.lost} {
		explore.Bit(c, v)
	}
	explore.Num(c, w.gen)
	explore.Num(c, w.landed)
	explore.Num(c, w.visit)
	explore.List(c, w.blocks, func(x mblock) {
		explore.Num(c, x.first)
		explore.Num(c, x.last)
		explore.Num(c, x.visit)
		explore.Num(c, x.handed)
		explore.Bit(c, x.ended)
	})
	explore.Num(c, w.now)
	for _, n := range w.budget {
		explore.Num(c, n)
	}
	return c.Buf
}

// Clone copies w, each slice and map of its state with it.
func (w *world) Clone() explore.State[move] {
	c := *w
	c.l.q, c.l.ids, c.l.zombies = slices.Clone(w.l.q), slices.Clone(w.l.ids), slices.Clone(w.l.zombies)
	c.cs = slices.Clone(w.cs)
	for i := range c.cs {
		c.cs[i].out = slices.Clone(c.cs[i].out)
	}
	c.reg, c.c2m, c.m2c = slices.Clone(w.reg), slices.Clone(w.c2m), slices.Clone(w.m2c)
	c.conn.Holds = maps.Clone(w.conn.Holds)
	c.hold.Expired = slices.Clone(w.hold.Expired)
	c.work, c.blocks = slices.Clone(w.work), slices.Clone(w.blocks)
	return &c
}

// check explores every state reachable within b.
func check(b checkBound, shortest bool) explore.Result[move] {
	return explore.Search[move](newWorld(&b), shortest)
}

// replay re-runs ms from the start and returns what each move did.
func replay(b checkBound, ms []move) []string {
	var log []string
	w := newWorld(&b)
	w.log = &log
	if err := explore.Replay[move](w, ms); err != nil {
		log = append(log, "  violation: "+err.Error())
	}
	return log
}

// TestLaneRotatesAHotKeyWithTwoFramesPerRunMachine is the machine-level
// twin of TestLaneRotatesAHotKeyWithTwoFramesPerRun, with no wall clock:
// eight callers cycle on one key against the real member, whose cohort
// budget of 8 makes runs of nine, and a caller that lets go asks again
// before the next holder releases. Once the crowd has formed, every run
// costs exactly two frames — the order that brings it and the ReleaseRun
// that ends it — and hands all nine of its fences round.
func TestLaneRotatesAHotKeyWithTwoFramesPerRunMachine(t *testing.T) {
	const callers, cycles, runLen = 8, 40, 9
	b := checkBound{keys: slices.Repeat([]string{"hot"}, callers), cycles: cycles, budget: runLen - 1}
	w := newWorld(&b)
	// Frames the member read, and grants, since the last run was granted.
	var orders, runReleases, others, grants, steady, holds int
	full := false // the last run granted was full: budget+1 fences
	// Drive the world by a fixed priority: the wire and the member first,
	// then the callers, arrivals before releases.
	priority := []mkind{mWrite, mServe, mTake, mLand, mGrant, mRun, mFree, mRead, mArrive, mRelease}
	for runs := 0; ; {
		var pick move
		found := false
		for _, k := range priority {
			for _, m := range w.Moves() {
				if m.kind == k {
					pick, found = m, true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			break
		}
		switch pick.kind {
		case mServe:
			switch a := w.c2m[0]; {
			case a.kind == sendAcquire && a.run:
				orders++
			case a.kind == endHold && a.run:
				runReleases++
			default:
				others++
			}
		case mGrant:
			if holds++; !w.work[pick.i].a.run {
				break
			}
			// Once a full run was granted, each run granted while all eight
			// callers still cycle follows nine grants, one order and one
			// ReleaseRun. (The first run is short: it follows the first
			// acquires' regrants, which spent part of the budget.)
			crowd := !slices.ContainsFunc(w.cs, func(c mcaller) bool { return c.state == cDone })
			if runs++; full && crowd {
				if grants != runLen || orders != 1 || runReleases != 1 || others != 0 {
					t.Fatalf("run %d came after %d grants, %d orders, %d run releases and %d other frames; want %d, 1, 1, 0",
						runs, grants, orders, runReleases, others, runLen)
				}
				steady++
			}
			orders, runReleases, others, grants = 0, 0, 0, 0
		case mRelease:
			grants++
		}
		if err := explore.Apply[move](w, pick); err != nil {
			t.Fatalf("run %d: %v", runs, err)
		}
		if pick.kind == mGrant && w.hold.Run > 1 {
			full = w.hold.Run == runLen
		}
	}
	if err := w.Quiescent(); err != nil {
		t.Fatal(err)
	}
	if steady < callers*cycles/runLen-4 {
		t.Fatalf("only %d runs in the steady state", steady)
	}
	t.Logf("%d grants in %d holds, %d runs at two frames each", callers*cycles, holds, steady)
}

// TestLaneKeepsTheAcquireAMorePromised: a run ends with more, backed by
// the ordinary acquire a waiter's arrival sent. The waiter then gives up.
// The acquire's cancel could reach the member before the ReleaseRun that
// promised it — the two leave from different callers — so the lane does
// not cancel it: the grant it brings goes straight back instead. (The
// checker found the promise broken that way before the lane kept it.)
func TestLaneKeepsTheAcquireAMorePromised(t *testing.T) {
	var l lane
	l.runs = true
	var ids uint64
	n := 0
	step := func(e event, want string) {
		t.Helper()
		n++
		if got := fmtActs(l.step(e, &ids, nil)); got != want {
			t.Fatalf("step %d did %q, want %q", n, got, want)
		}
	}
	step(event{kind: evArrive, h: 0, key: "a"}, "acquire #1 a")
	step(event{kind: evArrive, h: 1, key: "a"}, "order #2 a")
	step(event{kind: evArrive, h: 2, key: "a"}, "-")
	step(event{kind: evAnswer, id: 2, r: resp{op: transport.RespRun, ok: true, fence: 1, run: 3}}, "hand 1 to caller 0")
	step(event{kind: evRelease, key: "a", fence: 1}, "hand 2 to caller 1")
	step(event{kind: evRelease, key: "a", fence: 2}, "#3 ReleaseRun(a, 3, used 2, more true)")
	step(event{kind: evLeave, h: 2}, "-")
	step(event{kind: evAnswer, id: 1, r: resp{op: transport.RespGrant, ok: true, fence: 4}}, "#4 Release(a, 4)")
	if !l.idle() {
		t.Fatalf("lane not idle: %+v", l)
	}
}

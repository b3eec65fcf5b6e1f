package client

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dagmutex/internal/explore"
	"dagmutex/internal/transport"
)

// The lane checker runs the lane machine (lane.go) against a model member
// and explores every interleaving of a small scope exhaustively. It plays
// Conn's part itself — register the acquires a step sends, deliver what
// it hands, write its frames — so what it explores is the machine's own
// decision code, with no goroutine, socket or clock.
//
// The model member is runtime.Slot behind transport's client server, for
// one lock domain: it queues acquires in the order it reads them, grants
// the head whenever the domain is free — an ordinary acquire one fence, a
// marked one a run of 1 or runLen fences, reserved at once — honours a
// cancel of an acquire still queued (a cancel read after the grant has
// crossed it), ends a hold on the release naming its last fence, and
// takes ReleaseRun's more as a promise that an acquire follows. Its lease
// runs out only after the clock has jumped past every deadline granted so
// far, which also takes the connection past half of every lease, so both
// the half-lease rule and a reclaimed hold are in scope.
//
// A caller arrives, holds, and releases by fence, once per cycle; it may
// give up while queued (a cancel). Frames a caller's step leaves to send
// reach the wire one at a time, after the step, as Conn writes them once
// it has let go of its lock; frames of the reader's steps are queued at
// once, as QueueClientFrame does. The connection may die at any point.
//
// The world is an explore.State: the search (internal/explore) visits
// every reachable state once, depth first, and on a violation again
// breadth first, which reports the shortest trace that reaches it.
type checkBound struct {
	keys     []string // one per caller: its resource, all of one domain
	cycles   int      // acquire/release cycles per caller
	runLen   uint32   // fences of a full run
	cancels  int      // callers that may give up, over the whole run
	losses   int      // connection losses
	expiries int      // leases the member may reclaim
}

var defaultBound = checkBound{keys: []string{"a", "b", "a"}, cycles: 1, runLen: 3, cancels: 1, losses: 1, expiries: 1}

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

type bstate uint8

const (
	bHeld bstate = iota
	bExpired
	bClosed
)

// mblock is a grant the member made: fences first..last under one hold.
type mblock struct {
	key         string
	first, last uint64
	expiry      uint64
	state       bstate
	handed      uint32 // bit i: fence first+i went to a caller
}

type mreply struct {
	id uint64
	r  resp
}

// world is one state of the check.
type world struct {
	b      *checkBound
	l      lane
	ids    uint64
	cs     []mcaller
	reg    []regd   // what the connection has registered, by request id
	c2m    []action // frames on their way to the member
	m2c    []mreply // answers on their way to the connection
	queue  []action // acquires queued at the member
	blocks []mblock // every grant made
	held   int      // the block the member holds for the connection, -1: none
	fence  uint64   // the last fence reserved
	now    int64    // both sides' clock, unix nanos
	more   bool     // a ReleaseRun said more and no acquire has followed
	lost   bool
	budget [4]int    // cancels, losses, expiries, clock jumps left
	log    *[]string // when non-nil, what each move did
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
	w := &world{b: b, held: -1, now: 1, budget: [4]int{b.cancels, b.losses, b.expiries, b.expiries}}
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
	mServe                // the member reads the next frame
	mGrant                // the member grants its queue head, a run of i
	mExpire               // the member reclaims a hold whose lease ran out
	mJump                 // the clock passes every deadline granted
	mLose                 // the connection dies
)

type move struct {
	kind mkind
	i    int
}

func (m move) String() string {
	return [...]string{"arrive", "write", "release", "cancel", "read", "serve", "grant", "expire", "jump", "lose"}[m.kind] + fmt.Sprint(" ", m.i)
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
	if w.held < 0 && len(w.queue) > 0 {
		ms = append(ms, move{mGrant, 1})
		if w.queue[0].run && w.b.runLen > 1 {
			ms = append(ms, move{mGrant, int(w.b.runLen)})
		}
	}
	if w.held >= 0 {
		if w.budget[2] > 0 && uint64(w.now) > w.blocks[w.held].expiry {
			ms = append(ms, move{mExpire, 0})
		}
		if w.budget[3] > 0 && w.now < farDate {
			ms = append(ms, move{mJump, 0})
		}
	}
	if w.budget[1] > 0 && !w.lost && len(ms) > 0 {
		ms = append(ms, move{mLose, 0})
	}
	return ms
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

// hand gives caller i fence f and checks that nobody had it before and
// that nobody else holds the domain.
func (w *world) hand(i int, f uint64) error {
	b := w.blockOf(f)
	if bit := uint32(1) << (f - b.first); b.handed&bit == 0 {
		b.handed |= bit
	} else {
		return fmt.Errorf("fence %d handed out twice", f)
	}
	w.cs[i].state, w.cs[i].fence = cHolding, f
	holders := 0
	for _, c := range w.cs {
		if c.state == cHolding && w.blockOf(c.fence).state == bHeld {
			holders++
		}
	}
	if holders > 1 {
		return fmt.Errorf("%d callers hold the domain at once", holders)
	}
	return nil
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

// Apply makes move m, reporting the invariant it breaks, if any.
func (w *world) Apply(m move) error {
	w.logf("%v", m)
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
		return w.serve(a)
	case mGrant:
		a, n := w.queue[0], uint32(m.i)
		w.queue = w.queue[1:]
		b := mblock{key: a.key, first: w.fence + 1, last: w.fence + uint64(n), expiry: uint64(w.now) + lease}
		w.fence = b.last
		w.held, w.blocks = len(w.blocks), append(w.blocks, b)
		r := resp{op: transport.RespGrant, ok: true, fence: b.first, expiry: b.expiry}
		if a.run {
			r.op, r.run = transport.RespRun, n
		}
		w.m2c = append(w.m2c, mreply{a.id, r})
	case mExpire:
		w.budget[2]--
		w.blocks[w.held].state, w.held = bExpired, -1
	case mJump:
		w.budget[3]--
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
		// The member tears the connection down: it releases what it holds
		// and aborts what is queued.
		w.reg, w.c2m, w.m2c, w.queue, w.more = nil, nil, nil, nil, false
		if w.held >= 0 {
			w.blocks[w.held].state, w.held = bClosed, -1
		}
	}
	return nil
}

// serve is the member reading frame a.
func (w *world) serve(a action) error {
	reply := func(r resp) { w.m2c = append(w.m2c, mreply{a.id, r}) }
	refuse := func(code byte) { reply(resp{op: transport.RespErr, ok: true, code: code}) }
	switch a.kind {
	case sendAcquire:
		w.queue, w.more = append(w.queue, a), false
	case sendCancel:
		for j, q := range w.queue {
			if q.id == a.id {
				w.queue = append(w.queue[:j], w.queue[j+1:]...)
				refuse(transport.CodeCanceled)
			}
		}
	case endHold:
		var b *mblock
		for j := range w.blocks {
			if x := &w.blocks[j]; x.state != bClosed && x.key == a.key && x.last == a.fence {
				b = x
			}
		}
		if b == nil {
			refuse(transport.CodeNotHeld)
			return nil
		}
		switch {
		case a.run && b.handed != 1<<a.used-1:
			return fmt.Errorf("ReleaseRun of fences %d..%d reports %d used, but handed out %b", b.first, b.last, a.used, b.handed)
		case !a.run && b.handed > 1:
			return fmt.Errorf("a Release ends fences %d..%d, but handed out %b", b.first, b.last, b.handed)
		}
		expired := b.state == bExpired
		b.state = bClosed
		if expired {
			refuse(transport.CodeLeaseExpired)
			return nil
		}
		for i, c := range w.cs {
			if c.state == cHolding && b.first <= c.fence && c.fence <= b.last {
				return fmt.Errorf("the hold of fences %d..%d ends while caller %d holds fence %d", b.first, b.last, i, c.fence)
			}
		}
		w.held = -1
		w.more = a.more && len(w.queue) == 0
		reply(resp{op: transport.RespOK, ok: true})
	}
	return nil
}

// Quiescent checks a state with no move left.
func (w *world) Quiescent() error {
	for i, c := range w.cs {
		if c.state != cDone {
			return fmt.Errorf("caller %d is left waiting (state %d)", i, c.state)
		}
	}
	if w.lost {
		return nil
	}
	switch {
	case w.held >= 0:
		return fmt.Errorf("the member still holds fences %d..%d for the connection and nobody waits", w.blocks[w.held].first, w.blocks[w.held].last)
	case w.more:
		return fmt.Errorf("a ReleaseRun promised more and no acquire followed")
	case !w.l.idle():
		return fmt.Errorf("the lane is not idle: %+v", w.l)
	}
	for _, b := range w.blocks {
		if b.state != bClosed {
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

// code walks every field of w that is state (not b or log), with
// explore.Coder.
func (w *world) code(c *explore.Coder) {
	act := func(a *action) {
		explore.Num(c, &a.kind)
		explore.Bit(c, &a.run)
		explore.Bit(c, &a.more)
		explore.Num(c, &a.h)
		explore.Num(c, &a.used)
		explore.Num(c, &a.id)
		explore.Num(c, &a.fence)
		explore.Num(c, &a.expiry)
		explore.Str(c, &a.key)
	}
	req := func(r *laneReq) { explore.Num(c, &r.id); explore.Str(c, &r.key) }
	hold := func(r *run) {
		explore.Num(c, &r.cur)
		explore.Num(c, &r.last)
		explore.Num(c, &r.used)
		explore.Str(c, &r.key)
		explore.Str(c, &r.holder)
		explore.Bit(c, &r.grant)
	}
	l := &w.l
	explore.Bit(c, &l.runs)
	q := l.waiting() // a served waiter's slot is capacity, not state
	explore.List(c, &q, func(x *waiter) { explore.Num(c, &x.h); explore.Str(c, &x.key) })
	l.q, l.n = q, len(q)
	explore.List(c, &l.ids, req)
	req(&l.order)
	explore.List(c, &l.zombies, req)
	if !c.Decoding && l.kept != l.order.id && !slices.ContainsFunc(l.ids, func(r laneReq) bool { return r.id == l.kept }) {
		l.kept = 0 // answered or withdrawn: it can match nothing again
	}
	explore.Num(c, &l.kept)
	explore.Bit(c, &l.held)
	hold(&l.run)
	hold(&l.stale)
	explore.Num(c, &l.next)
	explore.Num(c, &l.expiry)
	explore.Num(c, &l.until)
	explore.Num(c, &w.ids)
	explore.List(c, &w.cs, func(x *mcaller) {
		explore.Num(c, &x.state)
		explore.Num(c, &x.left)
		explore.Num(c, &x.fence)
		explore.Num(c, &x.rel)
		explore.List(c, &x.out, act)
	})
	explore.List(c, &w.reg, func(r *regd) { explore.Num(c, &r.id); explore.Num(c, &r.who) })
	explore.List(c, &w.c2m, act)
	explore.List(c, &w.queue, act)
	explore.List(c, &w.m2c, func(r *mreply) {
		explore.Num(c, &r.id)
		explore.Num(c, &r.r.op)
		explore.Bit(c, &r.r.ok)
		explore.Num(c, &r.r.code)
		explore.Num(c, &r.r.fence)
		explore.Num(c, &r.r.expiry)
		explore.Num(c, &r.r.run)
	})
	explore.List(c, &w.blocks, func(x *mblock) {
		explore.Str(c, &x.key)
		explore.Num(c, &x.first)
		explore.Num(c, &x.last)
		explore.Num(c, &x.expiry)
		explore.Num(c, &x.state)
		explore.Num(c, &x.handed)
	})
	explore.Num(c, &w.held)
	explore.Num(c, &w.fence)
	explore.Num(c, &w.now)
	explore.Bit(c, &w.more)
	explore.Bit(c, &w.lost)
	for i := range w.budget {
		explore.Num(c, &w.budget[i])
	}
}

func (w *world) Encode(b []byte) []byte {
	c := explore.Coder{Buf: b}
	w.code(&c)
	return c.Buf
}

func decode(b *checkBound, enc []byte) *world {
	w := &world{b: b}
	w.code(&explore.Coder{Buf: enc, Decoding: true})
	return w
}

// check explores every state reachable within b.
func check(b checkBound, shortest bool) explore.Result[move] {
	return explore.Search[move](newWorld(&b), func(enc []byte) explore.State[move] { return decode(&b, enc) }, shortest)
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
// eight callers cycle on one key against the model member, which grants
// runs of nine, and a caller that lets go asks again before the next
// holder releases. Once the crowd has formed, every run costs exactly
// two frames — the order that brings it and the ReleaseRun that ends it
// — and hands all nine of its fences round.
func TestLaneRotatesAHotKeyWithTwoFramesPerRunMachine(t *testing.T) {
	const callers, cycles, runLen = 8, 40, 9
	b := checkBound{keys: slices.Repeat([]string{"hot"}, callers), cycles: cycles, runLen: runLen}
	w := newWorld(&b)
	// Frames the member read, and grants, since the last run was granted.
	var orders, runReleases, others, grants, steady int
	// Drive the world by a fixed priority: the wire and the member first,
	// then the callers, arrivals before releases.
	priority := []mkind{mWrite, mServe, mGrant, mRead, mArrive, mRelease}
	for runs := 0; ; {
		var pick move
		found := false
		for _, k := range priority {
			for _, m := range w.Moves() {
				if m.kind == k && (k != mGrant || m.i == runLen || !w.queue[0].run) {
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
			if !w.queue[0].run {
				break
			}
			// The first run forms the crowd. After it, each run granted while
			// all eight callers still cycle follows nine grants, one order and
			// one ReleaseRun.
			crowd := !slices.ContainsFunc(w.cs, func(c mcaller) bool { return c.state == cDone })
			if runs++; runs > 1 && crowd {
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
	}
	if err := w.Quiescent(); err != nil {
		t.Fatal(err)
	}
	if steady < callers*cycles/runLen-4 {
		t.Fatalf("only %d runs in the steady state", steady)
	}
	t.Logf("%d grants in %d holds, %d runs at two frames each", callers*cycles, len(w.blocks), steady)
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

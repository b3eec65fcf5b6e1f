package client

import (
	"slices"

	"dagmutex/internal/transport"
)

// handle names a waiting caller: its index in Conn.parked.
type handle uint32

type waiter struct {
	h   handle
	key string // the resource it asked for
}

// laneReq is an acquire in flight: its request id and the resource it
// names, that of the caller heading the queue when it was sent.
type laneReq struct {
	id  uint64
	key string
}

// run is a hold a lane hands round: the fence a caller holds and what it
// asked for (cur, holder); what the member knows the hold by, which its
// release must name (last, key); how many fences were handed out; and
// whether it is an ordinary grant, ended by an ordinary release.
type run struct {
	cur, last   uint64
	used        uint32
	key, holder string
	grant       bool
}

// markAt is how many callers must wait in a lane for it to order a run:
// below it an acquire per caller does all a run could, hiding nobody.
const markAt = 2

// lane is the machine of the package doc. It is idle, with nothing left
// to remember, when nobody waits, nothing is in flight and no fence of it
// is held.
type lane struct {
	runs bool // the member grants runs

	q []waiter // the waiters are its last n entries
	n int

	// The acquires in flight: the lane's, not their senders', since a
	// grant goes to whoever heads the queue when it arrives.
	ids     []laneReq // ordinary, oldest first
	order   laneReq   // id 0: none
	zombies []laneReq
	kept    uint64 // the acquire a ReleaseRun's more rests on: never canceled

	// The hold handed round: a caller holds cur of it while held;
	// next..last are left, expiring at expiry, and none is handed on from
	// until (unix nanos, 0: never). An ordinary grant is handed round only
	// to a caller on another resource than the one it names.
	held bool
	run
	next   uint64
	expiry uint64
	until  int64

	// stale is kept so that its holder's late release names what the
	// member filed the expiry under.
	stale run
}

type evKind uint8

const (
	evArrive  evKind = iota // caller h asks for key
	evLeave                 // caller h gives up while still queued
	evAnswer                // the member answers acquire id with r
	evRelease               // a caller releases key, by fence (0: by name)
	evLost                  // the connection died
)

type event struct {
	kind      evKind
	h         handle
	key       string
	id, fence uint64
	r         resp
	now       int64 // unix nanos
}

type acKind uint8

const (
	sendAcquire   acKind = iota // send acquire id for key: an order when run
	sendCancel                  // withdraw acquire id
	handFence                   // hand waiter h fence, expiring at expiry
	failWaiter                  // answer waiter h with the event's refusal
	endHold                     // send Release(key, fence), or when run ReleaseRun(key, last = fence, used, more)
	refuseRelease               // the release would end a hold another caller is inside
)

type action struct {
	kind              acKind
	run, more         bool
	h                 handle
	used              uint32
	id, fence, expiry uint64
	key               string
}

// step applies e and appends to out what the driver must do, in order;
// each frame takes the next request id of *ids. The caller owns out.
func (l *lane) step(e event, ids *uint64, out []action) []action {
	switch e.kind {
	case evArrive:
		if l.n == 0 || len(l.q) == cap(l.q) {
			l.q = append(l.q[:0], l.waiting()...)
		}
		l.q = append(l.q, waiter{e.h, e.key})
		l.n++
	case evLeave:
		l.pop(slices.IndexFunc(l.waiting(), func(w waiter) bool { return w.h == e.h }))
	case evAnswer:
		out = l.answer(e, ids, out)
	case evRelease:
		return l.release(e, ids, out)
	case evLost:
		for _, w := range l.waiting() {
			out = append(out, action{kind: failWaiter, h: w.h})
		}
		*l = lane{runs: l.runs}
		return out
	}
	return l.settle(ids, out)
}

// answer gives a grant or run to the caller heading the queue (with
// nobody there, straight back), and an error to the newest caller on the
// refused acquire's resource, more often than not the one that sent it.
func (l *lane) answer(e event, ids *uint64, out []action) []action {
	r, key := e.r, l.answered(e.id)
	switch {
	case granted(r) && l.n == 0:
		*ids++
		out = append(out, giveBack(*ids, key, r))
	case granted(r):
		if l.held {
			// The member grants the shard again while a caller still holds a
			// fence of the last hold: that hold's lease ran out.
			l.stale, l.held = l.run, false
		}
		if r.op == transport.RespGrant && l.waiting()[0].key == key {
			// The caller's own from here on, released with an ordinary
			// release: the lane keeps no trace of it.
			w := l.pop(0)
			out = append(out, action{kind: handFence, h: w.h, fence: r.fence, expiry: r.expiry})
			break
		}
		n := uint32(1)
		if r.op == transport.RespRun {
			n = r.run
		}
		l.run = run{last: r.fence + uint64(n-1), key: key, grant: r.op == transport.RespGrant}
		l.next, l.expiry, l.until = r.fence, r.expiry, 0
		if r.expiry != 0 {
			l.until = e.now + max(int64(r.expiry)-e.now, 0)/2
		}
		out = l.hand(out)
	case r.ok && r.op == transport.RespErr && r.code == transport.CodeCanceled:
		// A cancel honoured. Callers queued now arrived after it was sent
		// and are owed an acquire of their own, not this refusal.
	case l.n > 0:
		ws, i := l.waiting(), l.n-1
		for j := range ws {
			if ws[j].key == key {
				i = j
			}
		}
		out = append(out, action{kind: failWaiter, h: l.pop(i).h})
	}
	return out
}

// release ends or hands on a hold out of the lane, by fence or by name;
// it refuses one in another caller's name and forwards any other.
func (l *lane) release(e event, ids *uint64, out []action) []action {
	var ended run
	switch {
	case l.held && e.key == l.holder && (e.fence == 0 || e.fence == l.cur):
		// A fence goes only to a waiter no ordinary acquire in flight is
		// counted for. Those are queued at the member behind the run; the
		// run ends instead and the member hands over to them, where a fence
		// would leave one with nobody to serve.
		if l.n > len(l.ids) && l.next <= l.last && (l.until == 0 || e.now < l.until) {
			return l.hand(out)
		}
		ended, l.held = l.run, false
	case e.fence != 0 && e.fence == l.stale.cur && e.key == l.stale.holder:
		ended, l.stale = l.stale, run{}
	case l.held && e.key == l.key && (e.fence == 0 || e.fence == l.last):
		return append(out, action{kind: refuseRelease})
	default:
		*ids++
		return append(out, action{kind: endHold, id: *ids, key: e.key, fence: e.fence})
	}
	*ids++
	end := action{kind: endHold, id: *ids, key: ended.key, fence: ended.cur}
	out = l.settle(ids, out)
	if !ended.grant {
		end.run, end.fence, end.used, end.more = true, ended.last, ended.used, l.n > 0
		// The oldest acquire in flight backs more. A waiter's leave must not
		// withdraw it: the cancel could reach the member before this frame.
		if l.kept = l.order.id; end.more && len(l.ids) > 0 {
			l.kept = l.ids[0].id
		}
	}
	return append(out, end)
}

// settle sends an acquire for a waiter nothing under way will serve, and
// withdraws the newest in flight if they outnumber the waiters: one at
// most, as no other step unbalances the lane by more.
func (l *lane) settle(ids *uint64, out []action) []action {
	if l.order.id == 0 && l.n > l.left()+len(l.ids) {
		*ids++
		r := laneReq{id: *ids, key: l.waiting()[0].key}
		order := l.runs && l.n >= markAt
		if order {
			l.order = r
		} else {
			l.ids = append(l.ids, r)
		}
		out = append(out, action{kind: sendAcquire, run: order, id: r.id, key: r.key})
	}
	var r laneReq
	switch last := len(l.ids) - 1; {
	case l.order.id != 0 && last+1 >= l.n:
		r, l.order = l.order, laneReq{} // nothing is sent behind an order: it is the newest
	case l.order.id == 0 && last >= l.n:
		r, l.ids = l.ids[last], l.ids[:last]
	default:
		return out
	}
	if l.zombies = append(l.zombies, r); r.id == l.kept {
		return out // its grant comes back instead
	}
	return append(out, action{kind: sendCancel, id: r.id})
}

func (l *lane) waiting() []waiter { return l.q[len(l.q)-l.n:] }

// pop takes the i-th waiter off the queue.
func (l *lane) pop(i int) waiter {
	k := len(l.q) - l.n
	w := l.q[k+i]
	copy(l.q[k+1:], l.q[k:k+i])
	l.q[k], l.n = waiter{}, l.n-1
	return w
}

// hand gives the run's next fence to the caller heading the queue.
func (l *lane) hand(out []action) []action {
	w := l.pop(0)
	l.held, l.cur, l.holder = true, l.next, w.key
	l.next++
	l.used++
	return append(out, action{kind: handFence, h: w.h, fence: l.cur, expiry: l.expiry})
}

// left is how many fences the open run still has for waiters.
func (l *lane) left() int {
	if !l.held || l.next > l.last {
		return 0
	}
	return int(l.last - l.next + 1)
}

func (l *lane) idle() bool {
	return l.n == 0 && len(l.ids) == 0 && l.order.id == 0 && len(l.zombies) == 0 && !l.held && l.stale == run{}
}

// answered takes acquire id off the lane and returns the key it named.
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

// granted reports whether r is a grant or a run.
func granted(r resp) bool {
	return r.ok && (r.op == transport.RespGrant || r.op == transport.RespRun)
}

// giveBack returns a grant (or a run, unused) of key nobody will take.
func giveBack(id uint64, key string, r resp) action {
	a := action{kind: endHold, id: id, key: key, fence: r.fence}
	if r.op == transport.RespRun {
		a.run, a.fence = true, r.fence+uint64(r.run-1)
	}
	return a
}

// Package maekawa implements Maekawa's √N quorum algorithm (ACM TOCS
// 1985) with the deadlock-avoidance correction due to Sanders (ACM TOCS
// 1987), as the thesis describes in §2.6.
//
// Every node owns a quorum ("committee") that intersects every other
// quorum; entering the critical section requires a LOCKED vote from each
// member. Each member locks for at most one request at a time, so two
// conflicting requesters always collide inside some shared member. The
// FAIL / INQUIRE / RELINQUISH machinery (with Sanders' rule that every
// queued request that is not the best candidate is FAILed once) makes
// higher-priority requests able to preempt locks, which restores deadlock
// freedom.
//
// Costs (thesis §2.6, §6): about 3√N messages per entry in the best case
// (REQUEST, LOCKED, RELEASE per member) and about 7√N in the worst;
// per-node storage grows with the arbitration queue.
package maekawa

import (
	"fmt"
	"sort"

	"dagmutex/internal/lclock"
	"dagmutex/internal/mutex"
)

// reqMsg asks the receiver to lock for the sender's stamped request.
type reqMsg struct{ Stamp lclock.Stamp }

// Kind implements mutex.Message.
func (reqMsg) Kind() string { return "REQUEST" }

// Size implements mutex.Message.
func (reqMsg) Size() int { return 2 * mutex.IntSize }

// lockedMsg is a member's vote for the request identified by Stamp.
type lockedMsg struct{ Stamp lclock.Stamp }

// Kind implements mutex.Message.
func (lockedMsg) Kind() string { return "LOCKED" }

// Size implements mutex.Message.
func (lockedMsg) Size() int { return 2 * mutex.IntSize }

// failMsg tells a requester its request is queued behind a better one.
type failMsg struct{ Stamp lclock.Stamp }

// Kind implements mutex.Message.
func (failMsg) Kind() string { return "FAIL" }

// Size implements mutex.Message.
func (failMsg) Size() int { return 2 * mutex.IntSize }

// inquireMsg asks the holder of a lock whether it will relinquish it.
type inquireMsg struct{ Stamp lclock.Stamp }

// Kind implements mutex.Message.
func (inquireMsg) Kind() string { return "INQUIRE" }

// Size implements mutex.Message.
func (inquireMsg) Size() int { return 2 * mutex.IntSize }

// relinquishMsg returns a lock so a better request can take it.
type relinquishMsg struct{ Stamp lclock.Stamp }

// Kind implements mutex.Message.
func (relinquishMsg) Kind() string { return "RELINQUISH" }

// Size implements mutex.Message.
func (relinquishMsg) Size() int { return 2 * mutex.IntSize }

// releaseMsg ends the critical section of the request with Stamp.
type releaseMsg struct{ Stamp lclock.Stamp }

// Kind implements mutex.Message.
func (releaseMsg) Kind() string { return "RELEASE" }

// Size implements mutex.Message.
func (releaseMsg) Size() int { return 2 * mutex.IntSize }

// waiting is one queued request at an arbiter.
type waiting struct {
	stamp    lclock.Stamp
	origin   mutex.ID
	failSent bool
}

// Node is one Maekawa site: a requester plus the arbiter for every quorum
// it belongs to.
type Node struct {
	id     mutex.ID
	env    mutex.Env
	quorum []mutex.ID // includes id itself

	clock lclock.Clock

	// Requester state.
	mine       lclock.Stamp
	requesting bool
	inCS       bool
	grants     map[mutex.ID]bool
	fails      map[mutex.ID]bool // member FAILed (or was relinquished) and has not re-LOCKED
	deferInq   []mutex.ID        // members whose INQUIRE awaits a decision

	// Arbiter state.
	curSet   bool
	cur      waiting
	inquired bool
	queue    []waiting // sorted ascending by stamp
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node; cfg.Quorums must contain a verified quorum map
// (see GridQuorums / FPPQuorums).
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	q, ok := cfg.Quorums[id]
	if !ok || len(q) == 0 {
		return nil, fmt.Errorf("%w: node %d has no quorum", mutex.ErrBadConfig, id)
	}
	if !contains(q, id) {
		return nil, fmt.Errorf("%w: node %d's quorum %v does not contain itself", mutex.ErrBadConfig, id, q)
	}
	return &Node{
		id:     id,
		env:    env,
		quorum: append([]mutex.ID(nil), q...),
		grants: make(map[mutex.ID]bool, len(q)),
		fails:  make(map[mutex.ID]bool, len(q)),
	}, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: stamp the request and solicit a LOCKED
// vote from every committee member. The node arbitrates its own membership
// locally, without messages, as the thesis describes ("pretends to have
// received the REQUEST message itself").
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	n.requesting = true
	n.mine = lclock.Stamp{Seq: n.clock.Tick(), Node: n.id}
	n.grants = make(map[mutex.ID]bool, len(n.quorum))
	n.fails = make(map[mutex.ID]bool, len(n.quorum))
	n.deferInq = n.deferInq[:0]
	for _, m := range n.quorum {
		if m == n.id {
			n.arbiterRequest(waiting{stamp: n.mine, origin: n.id})
		} else {
			n.env.Send(m, reqMsg{Stamp: n.mine})
		}
	}
	return nil
}

// Release implements mutex.Node: notify every committee member.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	stamp := n.mine
	n.mine = lclock.Stamp{}
	for _, m := range n.quorum {
		if m == n.id {
			if err := n.arbiterRelease(n.id, stamp); err != nil {
				return err
			}
		} else {
			n.env.Send(m, releaseMsg{Stamp: stamp})
		}
	}
	return nil
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch msg := m.(type) {
	case reqMsg:
		n.clock.Witness(msg.Stamp.Seq)
		n.arbiterRequest(waiting{stamp: msg.Stamp, origin: from})
		return nil
	case relinquishMsg:
		return n.arbiterRelinquish(from, msg.Stamp)
	case releaseMsg:
		return n.arbiterRelease(from, msg.Stamp)
	case lockedMsg:
		return n.onLocked(from, msg.Stamp)
	case failMsg:
		n.onFail(from, msg.Stamp)
		return nil
	case inquireMsg:
		n.onInquire(from, msg.Stamp)
		return nil
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
}

// --- arbiter role -----------------------------------------------------

func (n *Node) arbiterRequest(r waiting) {
	if !n.curSet {
		n.curSet = true
		n.cur = r
		n.inquired = false
		n.sendLocked(r)
		return
	}
	n.enqueue(r)
	if r.stamp.Less(n.cur.stamp) && !n.inquired {
		n.inquired = true
		n.sendToRequester(n.cur.origin, inquireMsg{Stamp: n.cur.stamp})
	}
	// Sanders' rule: every queued request that is not the best candidate
	// at this member receives FAIL exactly once, so its owner can decide
	// to relinquish locks it holds elsewhere.
	best := n.cur.stamp
	if n.queue[0].stamp.Less(best) {
		best = n.queue[0].stamp
	}
	for i := range n.queue {
		w := &n.queue[i]
		if !w.failSent && best.Less(w.stamp) {
			w.failSent = true
			n.sendToRequester(w.origin, failMsg{Stamp: w.stamp})
		}
	}
}

func (n *Node) arbiterRelinquish(from mutex.ID, stamp lclock.Stamp) error {
	if !n.curSet || n.cur.stamp != stamp || n.cur.origin != from {
		return fmt.Errorf("%w: RELINQUISH %v from %d does not match current lock",
			mutex.ErrUnexpectedMessage, stamp, from)
	}
	// The relinquished request rejoins the queue; its owner already knows
	// it is not the best, so no further FAIL is owed.
	back := n.cur
	back.failSent = true
	n.enqueue(back)
	n.promote()
	return nil
}

func (n *Node) arbiterRelease(from mutex.ID, stamp lclock.Stamp) error {
	if !n.curSet || n.cur.origin != from || n.cur.stamp != stamp {
		return fmt.Errorf("%w: RELEASE %v from %d does not match current lock",
			mutex.ErrUnexpectedMessage, stamp, from)
	}
	n.promote()
	return nil
}

// promote installs the best queued request (if any) as the current lock.
func (n *Node) promote() {
	n.inquired = false
	if len(n.queue) == 0 {
		n.curSet = false
		n.cur = waiting{}
		return
	}
	n.cur = n.queue[0]
	n.queue = n.queue[1:]
	n.curSet = true
	n.sendLocked(n.cur)
}

func (n *Node) enqueue(r waiting) {
	i := sort.Search(len(n.queue), func(i int) bool { return r.stamp.Less(n.queue[i].stamp) })
	n.queue = append(n.queue, waiting{})
	copy(n.queue[i+1:], n.queue[i:])
	n.queue[i] = r
}

func (n *Node) sendLocked(r waiting) {
	n.sendToRequester(r.origin, lockedMsg{Stamp: r.stamp})
}

// sendToRequester routes arbiter verdicts, short-circuiting self-delivery.
func (n *Node) sendToRequester(origin mutex.ID, m mutex.Message) {
	if origin != n.id {
		n.env.Send(origin, m)
		return
	}
	switch msg := m.(type) {
	case lockedMsg:
		// Local verdicts are always fresh; the error path is unreachable.
		_ = n.onLocked(n.id, msg.Stamp)
	case failMsg:
		n.onFail(n.id, msg.Stamp)
	case inquireMsg:
		n.onInquire(n.id, msg.Stamp)
	}
}

// --- requester role ----------------------------------------------------

func (n *Node) onLocked(from mutex.ID, stamp lclock.Stamp) error {
	if !n.requesting || stamp != n.mine {
		return fmt.Errorf("%w: LOCKED %v from %d for no pending request",
			mutex.ErrUnexpectedMessage, stamp, from)
	}
	n.grants[from] = true
	n.fails[from] = false
	if len(n.grants) == len(n.quorum) {
		for _, m := range n.quorum {
			if !n.grants[m] {
				return nil
			}
		}
		n.requesting = false
		n.inCS = true
		n.deferInq = n.deferInq[:0]
		n.env.Granted(0)
	}
	return nil
}

func (n *Node) onFail(from mutex.ID, stamp lclock.Stamp) {
	if stamp != n.mine || !n.requesting {
		return // stale verdict for a finished request
	}
	n.fails[from] = true
	// Doom is now certain: answer every deferred INQUIRE with RELINQUISH.
	for _, b := range n.deferInq {
		n.relinquishTo(b)
	}
	n.deferInq = n.deferInq[:0]
}

func (n *Node) onInquire(from mutex.ID, stamp lclock.Stamp) {
	if stamp != n.mine || n.inCS || !n.requesting {
		// Stale, or we already entered: the eventual RELEASE resolves it.
		return
	}
	if n.doomed() {
		n.relinquishTo(from)
		return
	}
	// Not decidable yet: defer until a FAIL arrives or we enter the CS.
	n.deferInq = append(n.deferInq, from)
}

// doomed reports whether some member has FAILed (or not yet re-LOCKED) us,
// meaning this request cannot currently collect a full vote.
func (n *Node) doomed() bool {
	for _, failed := range n.fails {
		if failed {
			return true
		}
	}
	return false
}

func (n *Node) relinquishTo(member mutex.ID) {
	delete(n.grants, member)
	n.fails[member] = true
	if member == n.id {
		// The local arbiter relinquish cannot fail: it holds our lock.
		_ = n.arbiterRelinquish(n.id, n.mine)
		return
	}
	n.env.Send(member, relinquishMsg{Stamp: n.mine})
}

// Storage implements mutex.Node: grant/fail vectors sized by the quorum
// plus the arbitration queue.
func (n *Node) Storage() mutex.Storage {
	return mutex.Storage{
		Scalars:      4,
		ArrayEntries: len(n.grants) + len(n.fails),
		QueueEntries: len(n.queue) + len(n.deferInq),
		Bytes: 4*mutex.IntSize + (len(n.grants) + len(n.fails)) +
			(len(n.queue)+len(n.deferInq))*2*mutex.IntSize,
	}
}

package core

import (
	"fmt"
	"slices"

	"dagmutex/internal/mutex"
)

// This file is the failure extension of the DAG algorithm: everything
// that runs when a node is suspected dead. The paper's model is fail-free
// — a crashed neighbor severs the DAG and a token held by a crashed node
// is lost forever. The extension closes both gaps with an epoch-based
// recovery:
//
//  1. A failure detector (outside this package) reports a suspected crash
//     through PeerDown, invoked under the node's handler lock like every
//     other event.
//  2. The highest-ID survivor coordinates: it bumps the epoch, freezes
//     the survivors with a PROBE round (each replies whether it has the
//     token, whether it is requesting, and the highest fencing generation
//     it has seen), and waits for every acknowledgment.
//  3. If a survivor has the token, it becomes the root of the rebuilt
//     DAG. If none does — the token died with the crashed node or was in
//     flight from it — the coordinator regenerates it, minting a fresh
//     PRIVILEGE whose generation jumps RegenerationJump above the highest
//     acknowledged generation, so every fence granted under the new token
//     is strictly above every fence the lost token ever granted.
//  4. A REORIENT round installs the new orientation: every survivor
//     points NEXT at the new sink, the acknowledged requesters are
//     re-queued as the root's FOLLOW chain (ID order), and the freeze
//     lifts.
//
// Safety across the window rests on the epoch stamped into REQUEST and
// PRIVILEGE: messages sent under a superseded configuration are
// annihilated on delivery (gateEpoch), so an in-flight token or request
// that the recovery already replaced cannot resurface, and a node that
// was excised while merely partitioned finds out the first time it hears
// newer-epoch traffic and asks to be re-admitted (JOIN / WELCOME).
//
// What the election does NOT close: between a false suspicion and the
// re-admission of the suspected node, the old token and the regenerated
// one both exist. Mutual exclusion is violated for that window; the
// fencing generation is the defense — the regenerated token's fences are
// strictly higher, so downstream stores reject the stale holder's writes
// (the minted jump would take the stale side RegenerationJump local
// grants to catch up). Regeneration is also quorum-gated: a minority
// partition never mints, so at most one side of a partition regenerates.

// RegenerationJump is the distance a regenerated token's generation jumps
// above the highest generation any survivor acknowledged. The true
// cluster maximum can exceed the acknowledged maximum when the crashed
// holder kept re-entering locally (each entry bumps the counter without a
// message), so the mint leaves this much headroom. The headroom is a
// bound, not an absolute guarantee: a holder that performed 2^20 or more
// local re-entries since the survivors last saw the token (or a
// falsely-suspected holder granting that many during its partition) can
// hold fences the mint does not clear. Within the bound — about a
// million grants, far beyond any partition-length realistic for the
// tuned suspicion windows — post-recovery fences are strictly above
// every fence the lost token issued.
const RegenerationJump = 1 << 20

// Probe freezes a survivor for recovery: the coordinator (the sender)
// announces the new epoch and the death that triggered it, and asks for
// the survivor's token/request state.
type Probe struct {
	Epoch uint32
	// Dead is the suspected node this round excises (the receiver marks
	// it dead even if its own detector has not fired yet).
	Dead mutex.ID
}

// Kind implements mutex.Message.
func (Probe) Kind() string { return "PROBE" }

// Size implements mutex.Message.
func (Probe) Size() int { return EpochSize + mutex.IntSize }

// ProbeAck is a survivor's reply: its token and request state, and the
// highest fencing generation it has seen (the mint floor).
type ProbeAck struct {
	Epoch      uint32
	HasToken   bool
	Requesting bool
	Generation uint64
}

// Kind implements mutex.Message.
func (ProbeAck) Kind() string { return "PROBEACK" }

// Size implements mutex.Message: epoch + two flags + generation.
func (ProbeAck) Size() int { return EpochSize + 2 + GenSize }

// Reorient installs one survivor's slice of the rebuilt DAG: its new
// NEXT and FOLLOW, and whether it is the root (the node that keeps — or,
// at the coordinator, receives — the epoch's token).
type Reorient struct {
	Epoch  uint32
	Next   mutex.ID
	Follow mutex.ID
	Token  bool
}

// Kind implements mutex.Message.
func (Reorient) Kind() string { return "REORIENT" }

// Size implements mutex.Message.
func (Reorient) Size() int { return EpochSize + 2*mutex.IntSize + 1 }

// Join asks a newer-epoch peer for re-admission: the sender discovered
// (from the peer's epoch) that it was excised by a recovery it never saw.
type Join struct{}

// Kind implements mutex.Message.
func (Join) Kind() string { return "JOIN" }

// Size implements mutex.Message.
func (Join) Size() int { return 0 }

// Welcome re-admits an excised node: it adopts the sender's epoch,
// discards any stale token, points NEXT at the sender (which has a path
// to the current sink), and re-issues its outstanding request if any.
type Welcome struct {
	Epoch uint32
}

// Kind implements mutex.Message.
func (Welcome) Kind() string { return "WELCOME" }

// Size implements mutex.Message.
func (Welcome) Size() int { return EpochSize }

// Epoch returns the node's current recovery epoch (0 until the first
// recovery).
func (n *Node) Epoch() uint32 { return n.epoch }

// member reports whether id is in the membership. n.ids is ascending:
// New and NewUninitialized refuse any other list.
func (n *Node) member(id mutex.ID) bool {
	_, found := slices.BinarySearch(n.ids, id)
	return found
}

// recovery returns the node's cold state, allocating it on first use.
func (n *Node) recovery() *cold {
	if n.cold == nil {
		n.cold = &cold{}
	}
	return n.cold
}

// suspects reports whether id is in the suspicion set.
func (n *Node) suspects(id mutex.ID) bool {
	if n.cold == nil {
		return false
	}
	_, found := slices.BinarySearch(n.cold.dead, id)
	return found
}

// markDead adds id, a member other than this node, to the suspicion set.
// A survivor suspects one or two peers, so the set is a short sorted
// slice; a node that never suspects anyone has none.
func (n *Node) markDead(id mutex.ID) {
	c := n.recovery()
	if i, found := slices.BinarySearch(c.dead, id); !found {
		c.dead = slices.Insert(c.dead, i, id)
	}
}

// unsuspect removes id from the suspicion set and reports whether it was
// there.
func (n *Node) unsuspect(id mutex.ID) bool {
	if n.cold == nil {
		return false
	}
	i, found := slices.BinarySearch(n.cold.dead, id)
	if found {
		n.cold.dead = slices.Delete(n.cold.dead, i, i+1)
	}
	return found
}

// peers yields the position in the membership and the ID of every member
// other than this node that it believes alive, ascending. The suspicion
// set is an ascending subset of the membership, so one merge walk skips
// it.
func (n *Node) peers(yield func(int, mutex.ID) bool) {
	var dead []mutex.ID
	if n.cold != nil {
		dead = n.cold.dead
	}
	for i, id := range n.ids {
		if len(dead) > 0 && dead[0] == id {
			dead = dead[1:]
			continue
		}
		if id != n.id && !yield(i, id) {
			return
		}
	}
}

// coordinator returns the recovery coordinator in this node's view: the
// highest-ID member it believes alive.
func (n *Node) coordinator() mutex.ID {
	for i := len(n.ids) - 1; i >= 0; i-- {
		if !n.suspects(n.ids[i]) {
			return n.ids[i]
		}
	}
	return mutex.Nil
}

// quorum reports whether the believed-alive members form a strict
// majority of the configured cluster — the gate on regeneration, so a
// minority partition can never mint a second token. Only members other
// than this node enter the suspicion set, so its length is the number of
// members believed dead.
func (n *Node) quorum() bool {
	alive := len(n.ids)
	if n.cold != nil {
		alive -= len(n.cold.dead)
	}
	return 2*alive > len(n.ids)
}

// PeerDown implements mutex.MembershipHandler: the failure detector (or
// transport-level evidence such as a connection reset) reports dead as
// crashed. The node marks it dead; if the node is the coordinator of the
// surviving view and the survivors hold a majority, it starts (or, on new
// evidence, restarts) the recovery.
func (n *Node) PeerDown(dead mutex.ID) error {
	if n.uninitialized {
		return fmt.Errorf("%w: node %d not initialized (run Figure 5 INIT first)", mutex.ErrBadConfig, n.id)
	}
	if dead == n.id {
		return fmt.Errorf("%w: node %d reported down to itself", mutex.ErrBadConfig, n.id)
	}
	if !n.member(dead) {
		return fmt.Errorf("%w: node %d is not a cluster member", mutex.ErrBadConfig, dead)
	}
	fresh := !n.suspects(dead)
	if fresh {
		n.markDead(dead)
		n.emit(EventPeerDown, 0, dead, mutex.Nil, 0, 0)
	}
	if n.coordinator() != n.id {
		// A survivor with a higher ID coordinates; this node just waits
		// for its probe (its own freeze, if any, stays in place).
		return nil
	}
	// Restart only on new information: a fresh death, or a collection
	// round that is now provably stuck because it awaits the dead node.
	if !fresh {
		if _, stuck := n.awaited(dead); !n.cold.collecting || !stuck {
			return nil
		}
	}
	if !n.quorum() {
		n.emit(EventQuorumLost, 0, dead, mutex.Nil, 0, 0)
		return nil
	}
	n.startRecovery(dead)
	return nil
}

// PeerUp implements mutex.MembershipHandler: a dead-marked peer was heard
// from again (heartbeats resumed after a heal, or a Join arrived). The
// node clears the suspicion and, if it has recovered past the peer,
// sponsors its re-admission with a Welcome.
func (n *Node) PeerUp(peer mutex.ID) error {
	if n.uninitialized {
		return fmt.Errorf("%w: node %d not initialized (run Figure 5 INIT first)", mutex.ErrBadConfig, n.id)
	}
	if peer == n.id || !n.member(peer) {
		return fmt.Errorf("%w: bad peer %d in PeerUp at node %d", mutex.ErrBadConfig, peer, n.id)
	}
	if !n.unsuspect(peer) {
		return nil
	}
	n.emit(EventPeerUp, 0, peer, mutex.Nil, 0, 0)
	if n.epoch > 0 {
		n.env.Send(peer, Welcome{Epoch: n.epoch})
	}
	return nil
}

// PlanReorient implements mutex.Reorienter: a planned reshape of the DAG
// toward an observed hot requester, reusing the crash-recovery epoch
// machinery verbatim — probe round, freeze, REORIENT install — with one
// difference in the outcome: the rebuilt orientation is the two-level
// radial around hot (everyone's NEXT points at hot, hot's at the sink)
// instead of the star around the sink, so subsequent requests from
// anywhere reach the hot region in at most two forwards.
//
// Only the node that possesses the token may plan (anyone else reports
// false), which makes regeneration impossible by construction: the
// initiator seeds itself as the round's token holder, so the epoch
// adopts the existing token and the fencing generation is untouched.
// Like Regrant, the reshape is refused — false, nil error — while a
// recovery or earlier reshape is in flight (frozen or collecting), while
// the current occupancy rides an invalidated token (staleCS), or
// without a quorum; acknowledged in-flight requests are re-queued as the
// rebuilt FOLLOW chain and requests issued mid-freeze are reissued, so
// no waiter is lost.
func (n *Node) PlanReorient(hot mutex.ID) (bool, error) {
	if n.uninitialized {
		return false, fmt.Errorf("%w: node %d not initialized (run Figure 5 INIT first)", mutex.ErrBadConfig, n.id)
	}
	if !n.member(hot) {
		return false, fmt.Errorf("%w: reorient target %d is not a cluster member", mutex.ErrBadConfig, hot)
	}
	if n.suspects(hot) {
		return false, fmt.Errorf("%w: reorient target %d is marked dead at node %d", mutex.ErrBadConfig, hot, n.id)
	}
	if n.frozen || (n.cold != nil && n.cold.collecting) || n.staleCS {
		return false, nil
	}
	if !n.holding && !n.inCS {
		return false, nil
	}
	if !n.quorum() {
		n.emit(EventQuorumLost, 0, hot, mutex.Nil, 0, 0)
		return false, nil
	}
	n.recovery().planTarget = hot
	n.emit(EventPlanReorient, 0, hot, mutex.Nil, n.gen, 0)
	n.startRecovery(mutex.Nil)
	return true, nil
}

// awaited reports whether the round this node coordinates still waits
// for id's acknowledgment, and id's position in the membership.
func (n *Node) awaited(id mutex.ID) (int, bool) {
	r := n.cold.round
	i, found := slices.BinarySearch(n.ids, id)
	return i, found && r != nil && r.awaiting[i/64]&(1<<(i%64)) != 0
}

// startRecovery begins (or restarts) a probe round with this node as
// coordinator. Callers have already checked membership and quorum.
func (n *Node) startRecovery(dead mutex.ID) {
	c := n.recovery()
	n.epoch++
	c.coord = n.id
	c.joinAsked = n.epoch
	n.frozen = true
	c.collecting = true
	c.ackedRequesting = n.requesting
	r := c.round
	if r == nil {
		r = &round{awaiting: make([]uint64, (len(n.ids)+63)/64)}
		c.round = r
	}
	clear(r.awaiting)
	r.pending = 0
	// Seed the aggregates with the coordinator's own state.
	r.holder = mutex.Nil
	if n.holding || n.inCS {
		r.holder = n.id
	}
	r.waiters = r.waiters[:0]
	if n.requesting {
		r.waiters = append(r.waiters, n.id)
	}
	r.maxGen = n.gen
	probe := mutex.Message(Probe{Epoch: n.epoch, Dead: dead}) // boxed once for the whole broadcast
	for i, id := range n.peers {
		r.awaiting[i/64] |= 1 << (i % 64)
		r.pending++
		n.env.Send(id, probe)
	}
	n.emit(EventProbe, 0, dead, mutex.Nil, 0, 0)
	if r.pending == 0 {
		n.finishRecovery()
	}
}

// deliverProbe is the survivor side of the probe round: adopt the epoch,
// mark the announced death, freeze, and report state. Ties between
// concurrent coordinators at the same epoch are broken toward the higher
// ID.
func (n *Node) deliverProbe(from mutex.ID, msg Probe) error {
	c := n.recovery()
	if msg.Epoch < n.epoch || (msg.Epoch == n.epoch && from <= c.coord) {
		return nil // superseded round
	}
	n.epoch = msg.Epoch
	c.coord = from
	if c.joinAsked < n.epoch {
		c.joinAsked = n.epoch
	}
	if msg.Dead != mutex.Nil && msg.Dead != n.id && n.member(msg.Dead) && !n.suspects(msg.Dead) {
		n.markDead(msg.Dead)
		n.emit(EventPeerDown, 0, msg.Dead, mutex.Nil, 0, 0)
	}
	// Cede any collection this node was running itself (a planned
	// reshape it had started is abandoned with it).
	c.cede()
	n.frozen = true
	c.ackedRequesting = n.requesting
	n.env.Send(from, ProbeAck{
		Epoch:      n.epoch,
		HasToken:   n.holding || n.inCS,
		Requesting: n.requesting,
		Generation: n.gen,
	})
	n.emit(EventFreeze, 0, from, mutex.Nil, n.gen, 0)
	return nil
}

// deliverProbeAck collects one survivor's state; the round completes when
// every probed survivor has answered.
func (n *Node) deliverProbeAck(from mutex.ID, msg ProbeAck) error {
	if n.cold == nil || !n.cold.collecting || msg.Epoch != n.epoch {
		return nil // superseded round
	}
	i, awaited := n.awaited(from)
	if !awaited {
		return nil // duplicate
	}
	r := n.cold.round
	r.awaiting[i/64] &^= 1 << (i % 64)
	r.pending--
	if msg.HasToken {
		if r.holder != mutex.Nil {
			return fmt.Errorf("%w: epoch %d recovery found two token holders (%d and %d)",
				mutex.ErrUnexpectedMessage, n.epoch, r.holder, from)
		}
		r.holder = from
	}
	if msg.Requesting {
		r.waiters = append(r.waiters, from)
	}
	if msg.Generation > r.maxGen {
		r.maxGen = msg.Generation
	}
	if r.pending == 0 {
		return n.finishRecovery()
	}
	return nil
}

// cede abandons the round this node was coordinating, if any, and the
// bias of a planned reshape with it.
func (c *cold) cede() {
	c.collecting = false
	if c.round != nil {
		c.round.pending = 0
	}
	c.planTarget = mutex.Nil
}

// finishRecovery computes the rebuilt DAG from the collected acks and
// installs it: REORIENT to every survivor, the coordinator's own slice
// applied locally, and — if no survivor holds the token — a regenerated
// token minted here.
func (n *Node) finishRecovery() error {
	c, r := n.cold, n.cold.round
	c.collecting = false
	root := r.holder
	minted := root == mutex.Nil
	if minted {
		root = n.id
	}
	// The acknowledged requesters become the root's FOLLOW chain, in ID
	// order (FIFO fairness does not survive a recovery; liveness does).
	// The round's list is sorted in place: nothing reads it again before
	// the next round resets it.
	waiters := slices.DeleteFunc(r.waiters, func(w mutex.ID) bool { return w == root })
	slices.Sort(waiters)
	sink := root
	if len(waiters) > 0 {
		sink = waiters[len(waiters)-1]
	}
	followOf := func(id mutex.ID) mutex.ID {
		if id == root {
			if len(waiters) > 0 {
				return waiters[0]
			}
			return mutex.Nil
		}
		if i, found := slices.BinarySearch(waiters, id); found && i+1 < len(waiters) {
			return waiters[i+1]
		}
		return mutex.Nil
	}
	// A planned reshape biases the rebuilt orientation toward its hot
	// target: everyone's NEXT points at hot and hot's at the sink (the
	// two-level radial), instead of the crash recovery's star around the
	// sink. The bias is consumed exactly once and falls back to the star
	// when the target died mid-round or already is the sink.
	hot := c.planTarget
	c.planTarget = mutex.Nil
	if hot != mutex.Nil && (n.suspects(hot) || hot == sink) {
		hot = mutex.Nil
	}
	nextOf := func(id mutex.ID) mutex.ID {
		if id == sink {
			return mutex.Nil
		}
		if hot != mutex.Nil && id != hot {
			return hot
		}
		return sink
	}
	for _, id := range n.peers {
		n.env.Send(id, Reorient{
			Epoch:  n.epoch,
			Next:   nextOf(id),
			Follow: followOf(id),
			Token:  id == root,
		})
	}
	if minted {
		n.gen = r.maxGen + RegenerationJump
		n.emit(EventRegenerate, 0, root, mutex.Nil, n.gen, 0)
	} else {
		n.emit(EventAdopt, 0, root, mutex.Nil, r.maxGen, 0)
	}
	n.applyOrientation(n.id == root, nextOf(n.id), followOf(n.id))
	n.reissueDeferredRequest()
	n.frozen = false
	c.ackedRequesting = false
	n.emit(EventReorient, 0, n.id, mutex.Nil, n.gen, 0)
	return n.playDeferred()
}

// deliverReorient is the survivor side of the install round.
func (n *Node) deliverReorient(from mutex.ID, msg Reorient) error {
	// Only a probe freezes a survivor, and taking one allocated the cold
	// state, so a frozen node has it.
	if !n.frozen || msg.Epoch != n.epoch || from != n.cold.coord {
		return nil // superseded or duplicate
	}
	n.applyOrientation(msg.Token, msg.Next, msg.Follow)
	n.reissueDeferredRequest()
	n.frozen = false
	n.cold.ackedRequesting = false
	n.emit(EventReorient, 0, from, mutex.Nil, n.gen, 0)
	return n.playDeferred()
}

// applyOrientation installs one node's slice of the rebuilt DAG. For the
// root it preserves (or, when the token was minted at the coordinator,
// materializes) the token; an idle root with a rebuilt successor chain
// grants its head immediately, exactly as a holding sink serves a request
// in P2. A non-root that still carries a token learned it is stale — it
// is discarded, and an ongoing critical section is marked so its Release
// does not resurrect it.
func (n *Node) applyOrientation(isRoot bool, next, follow mutex.ID) {
	n.next = next
	n.follow = follow
	n.followHops = 0 // the rebuilt chain carries no request-path history
	if !isRoot {
		if n.holding || n.inCS {
			n.holding = false
			if n.inCS {
				n.staleCS = true
			}
		}
		return
	}
	if !n.holding && !n.inCS {
		// Minted here (the coordinator is always the root in that case).
		if n.requesting {
			n.requesting = false
			n.inCS = true
			n.grant(0)
		} else {
			n.holding = true
		}
	}
	if n.holding && n.follow != mutex.Nil {
		to := n.follow
		n.follow = mutex.Nil
		n.holding = false
		n.sendPrivilege(to, Privilege{Generation: n.gen, Epoch: n.epoch})
	}
}

// reissueDeferredRequest sends the REQUEST for an application request
// that arrived during the freeze. The coordinator could not have known
// about it (the node's ack predates it), so it is not in the rebuilt
// chain and must be issued now; requests the coordinator did acknowledge
// wait for the chain instead.
func (n *Node) reissueDeferredRequest() {
	if !n.requesting || n.inCS || n.cold.ackedRequesting || n.next == mutex.Nil {
		return
	}
	n.sendRequest(n.next, Request{From: n.id, Origin: n.id, Epoch: n.epoch})
	n.next = mutex.Nil
}

// playDeferred delivers the traffic buffered during the freeze through
// the normal gates: messages from the superseded epoch annihilate,
// current-epoch ones (a grant racing ahead of this node's REORIENT)
// apply.
func (n *Node) playDeferred() error {
	c := n.cold
	q := c.deferred
	c.deferred = nil
	for _, d := range q {
		if err := n.DeliverMsg(d.from, d.msg); err != nil {
			return err
		}
	}
	if c.deferred == nil {
		c.deferred = q[:0] // nothing deferred again: the next freeze reuses the buffer
	}
	return nil
}

// deliverJoin sponsors a stale node's re-admission; the Join also proves
// the sender is alive.
func (n *Node) deliverJoin(from mutex.ID) error {
	if !n.member(from) {
		return fmt.Errorf("%w: JOIN from non-member %d at node %d", mutex.ErrUnexpectedMessage, from, n.id)
	}
	if n.unsuspect(from) {
		n.emit(EventPeerUp, 0, from, mutex.Nil, 0, 0)
	}
	if n.epoch > 0 {
		n.env.Send(from, Welcome{Epoch: n.epoch})
	}
	return nil
}

// deliverWelcome re-admits this node into a newer epoch: adopt it,
// discard any stale token, point NEXT at the sponsor, and re-issue the
// outstanding request if any. Welcomes at or below the current epoch are
// redundant sponsorships and ignored.
func (n *Node) deliverWelcome(from mutex.ID, msg Welcome) error {
	if msg.Epoch <= n.epoch {
		return nil
	}
	c := n.recovery()
	n.epoch = msg.Epoch
	c.coord = from
	c.joinAsked = msg.Epoch
	// Fresh view: clear local suspicions; the detector re-marks real
	// deaths, and stale pessimism would skew coordinator election.
	c.dead = c.dead[:0]
	c.cede()
	n.frozen = false
	c.deferred = c.deferred[:0]
	c.ackedRequesting = false
	if n.holding || n.inCS {
		n.holding = false
		if n.inCS {
			n.staleCS = true
		}
	}
	n.follow = mutex.Nil
	n.followHops = 0
	n.next = from
	if n.requesting && !n.inCS {
		n.sendRequest(n.next, Request{From: n.id, Origin: n.id, Epoch: n.epoch})
		n.next = mutex.Nil
	}
	n.emit(EventWelcome, 0, from, mutex.Nil, n.gen, 0)
	return nil
}

package core

import (
	"fmt"
	"sort"

	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
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

// EventKind labels one failure-recovery event.
type EventKind uint8

// The recovery events, in rough lifecycle order.
const (
	// EventPeerDown: a peer was marked dead (detector or probe evidence).
	EventPeerDown EventKind = iota + 1
	// EventPeerUp: a dead-marked peer was heard from again.
	EventPeerUp
	// EventProbe: this node, as coordinator, started a probe round.
	EventProbe
	// EventFreeze: this node acknowledged a probe and froze.
	EventFreeze
	// EventRegenerate: the token was lost; a fresh one was minted here.
	EventRegenerate
	// EventAdopt: a surviving token was found; its holder is the new root.
	EventAdopt
	// EventReorient: this node applied its rebuilt orientation.
	EventReorient
	// EventQuorumLost: a death left the survivors without a majority, so
	// recovery (and in particular regeneration) is refused.
	EventQuorumLost
	// EventStaleDrop: a message from a superseded epoch was annihilated.
	EventStaleDrop
	// EventJoinSent: newer-epoch traffic revealed this node was excised;
	// it asked the sender for re-admission.
	EventJoinSent
	// EventWelcome: this node was re-admitted into a newer epoch (Peer is
	// the sponsor) or re-admitted a returning peer (see PeerUp).
	EventWelcome
	// EventPlanReorient: this node, holding the token, started a planned
	// reshape epoch toward an observed hot requester (Peer is the target).
	EventPlanReorient
)

// String names the event kind for traces.
func (k EventKind) String() string {
	switch k {
	case EventPeerDown:
		return "PEER-DOWN"
	case EventPeerUp:
		return "PEER-UP"
	case EventProbe:
		return "PROBE"
	case EventFreeze:
		return "FREEZE"
	case EventRegenerate:
		return "REGENERATE"
	case EventAdopt:
		return "ADOPT"
	case EventReorient:
		return "REORIENT"
	case EventQuorumLost:
		return "QUORUM-LOST"
	case EventStaleDrop:
		return "STALE-DROP"
	case EventJoinSent:
		return "JOIN"
	case EventWelcome:
		return "WELCOME"
	case EventPlanReorient:
		return "PLAN-REORIENT"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one failure-recovery observation, reported to the observer
// registered with WithEventObserver.
type Event struct {
	Kind EventKind
	// Node is the observing node.
	Node mutex.ID
	// Peer is the other node involved (dead peer, coordinator, root, ...;
	// Nil when not applicable).
	Peer mutex.ID
	// Epoch is the observing node's epoch at the time of the event.
	Epoch uint32
	// Generation carries the relevant fencing generation (mint base for
	// EventRegenerate, local generation otherwise) when meaningful.
	Generation uint64
}

// Trace maps the recovery event into the telemetry vocabulary: a
// RECOVERY trace event whose Detail is the recovery kind's name. This is
// the single bridge between the two event streams, so dagtrace's chaos
// rendering and a live trace observer print recoveries identically.
func (e Event) Trace() telemetry.TraceEvent {
	return telemetry.TraceEvent{
		Kind: telemetry.TraceRecovery, Node: e.Node, Peer: e.Peer,
		Epoch: e.Epoch, Fence: e.Generation, Shard: -1, Detail: e.Kind.String(),
	}
}

func (n *Node) event(k EventKind, peer mutex.ID, gen uint64) {
	ev := Event{Kind: k, Node: n.id, Peer: peer, Epoch: n.epoch, Generation: gen}
	if n.onEvent != nil {
		n.onEvent(ev)
	}
	if n.onTrace != nil {
		n.onTrace(ev.Trace())
	}
}

// Epoch returns the node's current recovery epoch (0 until the first
// recovery).
func (n *Node) Epoch() uint32 { return n.epoch }

// Alive returns the members the node currently believes are alive,
// ascending.
func (n *Node) Alive() []mutex.ID {
	out := make([]mutex.ID, 0, len(n.ids))
	for _, id := range n.ids {
		if !n.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

func (n *Node) member(id mutex.ID) bool {
	for _, m := range n.ids {
		if m == id {
			return true
		}
	}
	return false
}

// coordinator returns the recovery coordinator in this node's view: the
// highest-ID member it believes alive.
func (n *Node) coordinator() mutex.ID {
	for i := len(n.ids) - 1; i >= 0; i-- {
		if !n.dead[n.ids[i]] {
			return n.ids[i]
		}
	}
	return mutex.Nil
}

// quorum reports whether the believed-alive members form a strict
// majority of the configured cluster — the gate on regeneration, so a
// minority partition can never mint a second token.
func (n *Node) quorum() bool {
	alive := 0
	for _, id := range n.ids {
		if !n.dead[id] {
			alive++
		}
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
	fresh := !n.dead[dead]
	if fresh {
		n.dead[dead] = true
		n.event(EventPeerDown, dead, 0)
	}
	if n.coordinator() != n.id {
		// A survivor with a higher ID coordinates; this node just waits
		// for its probe (its own freeze, if any, stays in place).
		return nil
	}
	// Restart only on new information: a fresh death, or a collection
	// round that is now provably stuck because it awaits the dead node.
	if !fresh && !(n.collecting && n.awaiting[dead]) {
		return nil
	}
	if !n.quorum() {
		n.event(EventQuorumLost, dead, 0)
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
	if !n.dead[peer] {
		return nil
	}
	delete(n.dead, peer)
	n.event(EventPeerUp, peer, 0)
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
	if n.dead[hot] {
		return false, fmt.Errorf("%w: reorient target %d is marked dead at node %d", mutex.ErrBadConfig, hot, n.id)
	}
	if n.frozen || n.collecting || n.staleCS {
		return false, nil
	}
	if !n.holding && !n.inCS {
		return false, nil
	}
	if !n.quorum() {
		n.event(EventQuorumLost, hot, 0)
		return false, nil
	}
	n.planTarget = hot
	n.event(EventPlanReorient, hot, n.gen)
	n.startRecovery(mutex.Nil)
	return true, nil
}

// startRecovery begins (or restarts) a probe round with this node as
// coordinator. Callers have already checked membership and quorum.
func (n *Node) startRecovery(dead mutex.ID) {
	n.epoch++
	n.coord = n.id
	n.joinAsked = n.epoch
	n.frozen = true
	n.collecting = true
	n.ackedRequesting = n.requesting
	n.awaiting = make(map[mutex.ID]bool)
	// Seed the aggregates with the coordinator's own state.
	n.ackHolder = mutex.Nil
	if n.holding || n.inCS {
		n.ackHolder = n.id
	}
	n.ackWaiters = n.ackWaiters[:0]
	if n.requesting {
		n.ackWaiters = append(n.ackWaiters, n.id)
	}
	n.ackMaxGen = n.gen
	for _, id := range n.ids {
		if id == n.id || n.dead[id] {
			continue
		}
		n.awaiting[id] = true
		n.env.Send(id, Probe{Epoch: n.epoch, Dead: dead})
	}
	n.event(EventProbe, dead, 0)
	if len(n.awaiting) == 0 {
		n.finishRecovery()
	}
}

// deliverProbe is the survivor side of the probe round: adopt the epoch,
// mark the announced death, freeze, and report state. Ties between
// concurrent coordinators at the same epoch are broken toward the higher
// ID.
func (n *Node) deliverProbe(from mutex.ID, msg Probe) error {
	if msg.Epoch < n.epoch || (msg.Epoch == n.epoch && from <= n.coord) {
		return nil // superseded round
	}
	n.epoch = msg.Epoch
	n.coord = from
	if n.joinAsked < n.epoch {
		n.joinAsked = n.epoch
	}
	if msg.Dead != mutex.Nil && msg.Dead != n.id && n.member(msg.Dead) && !n.dead[msg.Dead] {
		n.dead[msg.Dead] = true
		n.event(EventPeerDown, msg.Dead, 0)
	}
	// Cede any collection this node was running itself (a planned
	// reshape it had started is abandoned with it).
	n.collecting = false
	n.awaiting = nil
	n.planTarget = mutex.Nil
	n.frozen = true
	n.ackedRequesting = n.requesting
	n.env.Send(from, ProbeAck{
		Epoch:      n.epoch,
		HasToken:   n.holding || n.inCS,
		Requesting: n.requesting,
		Generation: n.gen,
	})
	n.event(EventFreeze, from, n.gen)
	return nil
}

// deliverProbeAck collects one survivor's state; the round completes when
// every probed survivor has answered.
func (n *Node) deliverProbeAck(from mutex.ID, msg ProbeAck) error {
	if !n.collecting || msg.Epoch != n.epoch || !n.awaiting[from] {
		return nil // superseded round or duplicate
	}
	delete(n.awaiting, from)
	if msg.HasToken {
		if n.ackHolder != mutex.Nil {
			return fmt.Errorf("%w: epoch %d recovery found two token holders (%d and %d)",
				mutex.ErrUnexpectedMessage, n.epoch, n.ackHolder, from)
		}
		n.ackHolder = from
	}
	if msg.Requesting {
		n.ackWaiters = append(n.ackWaiters, from)
	}
	if msg.Generation > n.ackMaxGen {
		n.ackMaxGen = msg.Generation
	}
	if len(n.awaiting) == 0 {
		return n.finishRecovery()
	}
	return nil
}

// finishRecovery computes the rebuilt DAG from the collected acks and
// installs it: REORIENT to every survivor, the coordinator's own slice
// applied locally, and — if no survivor holds the token — a regenerated
// token minted here.
func (n *Node) finishRecovery() error {
	n.collecting = false
	root := n.ackHolder
	minted := root == mutex.Nil
	if minted {
		root = n.id
	}
	// The acknowledged requesters become the root's FOLLOW chain, in ID
	// order (FIFO fairness does not survive a recovery; liveness does).
	waiters := make([]mutex.ID, 0, len(n.ackWaiters))
	for _, w := range n.ackWaiters {
		if w != root {
			waiters = append(waiters, w)
		}
	}
	sort.Slice(waiters, func(i, j int) bool { return waiters[i] < waiters[j] })
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
		for i, w := range waiters {
			if w == id && i+1 < len(waiters) {
				return waiters[i+1]
			}
		}
		return mutex.Nil
	}
	// A planned reshape biases the rebuilt orientation toward its hot
	// target: everyone's NEXT points at hot and hot's at the sink (the
	// two-level radial), instead of the crash recovery's star around the
	// sink. The bias is consumed exactly once and falls back to the star
	// when the target died mid-round or already is the sink.
	hot := n.planTarget
	n.planTarget = mutex.Nil
	if hot != mutex.Nil && (n.dead[hot] || hot == sink) {
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
	for _, id := range n.ids {
		if id == n.id || n.dead[id] {
			continue
		}
		n.env.Send(id, Reorient{
			Epoch:  n.epoch,
			Next:   nextOf(id),
			Follow: followOf(id),
			Token:  id == root,
		})
	}
	if minted {
		n.gen = n.ackMaxGen + RegenerationJump
		n.event(EventRegenerate, root, n.gen)
	} else {
		n.event(EventAdopt, root, n.ackMaxGen)
	}
	n.applyOrientation(n.id == root, nextOf(n.id), followOf(n.id))
	n.reissueDeferredRequest()
	n.frozen = false
	n.ackedRequesting = false
	n.event(EventReorient, n.id, n.gen)
	return n.playDeferred()
}

// deliverReorient is the survivor side of the install round.
func (n *Node) deliverReorient(from mutex.ID, msg Reorient) error {
	if msg.Epoch != n.epoch || from != n.coord || !n.frozen {
		return nil // superseded or duplicate
	}
	n.applyOrientation(msg.Token, msg.Next, msg.Follow)
	n.reissueDeferredRequest()
	n.frozen = false
	n.ackedRequesting = false
	n.event(EventReorient, from, n.gen)
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
			n.grant()
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
	if !n.requesting || n.inCS || n.ackedRequesting || n.next == mutex.Nil {
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
	q := n.deferred
	n.deferred = nil
	for _, d := range q {
		if err := n.DeliverMsg(d.from, d.msg); err != nil {
			return err
		}
	}
	return nil
}

// deliverJoin sponsors a stale node's re-admission; the Join also proves
// the sender is alive.
func (n *Node) deliverJoin(from mutex.ID) error {
	if !n.member(from) {
		return fmt.Errorf("%w: JOIN from non-member %d at node %d", mutex.ErrUnexpectedMessage, from, n.id)
	}
	if n.dead[from] {
		delete(n.dead, from)
		n.event(EventPeerUp, from, 0)
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
	n.epoch = msg.Epoch
	n.coord = from
	n.joinAsked = msg.Epoch
	// Fresh view: clear local suspicions; the detector re-marks real
	// deaths, and stale pessimism would skew coordinator election.
	n.dead = make(map[mutex.ID]bool)
	n.collecting = false
	n.awaiting = nil
	n.planTarget = mutex.Nil
	n.frozen = false
	n.deferred = nil
	n.ackedRequesting = false
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
	n.event(EventWelcome, from, n.gen)
	return nil
}

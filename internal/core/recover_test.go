package core

import (
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// chaosWorld is a world that records recovery events.
type chaosWorld struct {
	*world
	events []Event
}

func newChaosWorld(t *testing.T, tree *topology.Tree, holder mutex.ID) *chaosWorld {
	cw := &chaosWorld{}
	cw.world = newWorld(t, tree, holder, WithObserver(RecoveryEvents, func(e Event) { cw.events = append(cw.events, e) }))
	return cw
}

// tokens counts live tokens among non-crashed nodes.
func (cw *chaosWorld) tokens() int {
	n := 0
	for id, node := range cw.Nodes {
		if node == nil || cw.dead[id] {
			continue
		}
		if s := node.Snapshot(); s.HasToken() && !node.staleCS {
			n++
		}
	}
	return n
}

func (cw *chaosWorld) sawEvent(k EventKind) bool {
	for _, e := range cw.events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// TestRecoveryKillHolderRegeneratesToken is the defining scenario: the
// token holder crashes mid-critical-section with a waiter queued in its
// FOLLOW. The survivors' recovery regenerates the token with a generation
// far above anything the dead holder granted, and the waiter — whose
// request the coordinator re-queues from its probe ack — enters next.
func TestRecoveryKillHolderRegeneratesToken(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(5), 1)
	cw.request(1) // holder enters its CS
	holderGen := cw.Grants[1].Gen
	cw.request(3) // waiter: REQUEST travels to 1, FOLLOW_1 = 3
	cw.drain()
	if got := cw.Nodes[1].Snapshot().Follow; got != 3 {
		t.Fatalf("FOLLOW_1 = %d, want 3", got)
	}

	cw.crash(1)
	cw.suspect(1)
	cw.drain()

	if !cw.sawEvent(EventRegenerate) {
		t.Fatal("no regeneration event despite the token dying with node 1")
	}
	if got := cw.Grants[3].Count; got != 1 {
		t.Fatalf("waiter 3 grants = %d, want 1 (re-queued by recovery)", got)
	}
	if got := cw.Grants[3].Gen; got <= holderGen+RegenerationJump-1 {
		t.Fatalf("regenerated grant generation = %d, want > %d (mint jump above dead holder's %d)",
			got, holderGen+RegenerationJump-1, holderGen)
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}

	// The cluster keeps working: the waiter releases, another node enters
	// with a strictly higher generation.
	cw.release(3)
	cw.request(2)
	cw.drain()
	if cw.Grants[2].Count != 1 {
		t.Fatal("node 2 not granted after recovery")
	}
	if cw.Grants[2].Gen <= cw.Grants[3].Gen {
		t.Fatalf("post-recovery fencing not monotonic: %d then %d", cw.Grants[3].Gen, cw.Grants[2].Gen)
	}
}

// TestRecoveryKillWaiterExcisesFollow: a queued waiter crashes. The
// rebuild drops it from the holder's FOLLOW chain, so the holder's
// release keeps the token instead of sending it to the dead node.
func TestRecoveryKillWaiterExcisesFollow(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(5), 1)
	cw.request(1)
	cw.request(3)
	cw.drain()

	cw.crash(3)
	cw.suspect(3)
	cw.drain()

	if cw.sawEvent(EventRegenerate) {
		t.Fatal("token regenerated although its holder survived")
	}
	if !cw.sawEvent(EventAdopt) {
		t.Fatal("recovery did not adopt the surviving token")
	}
	if got := cw.Nodes[1].Snapshot().Follow; got != mutex.Nil {
		t.Fatalf("FOLLOW_1 = %d after recovery, want Nil (dead waiter excised)", got)
	}
	cw.release(1)
	if !cw.Nodes[1].Snapshot().Holding {
		t.Fatal("holder released the token toward the dead waiter")
	}
	cw.request(2)
	cw.drain()
	if cw.Grants[2].Count != 1 {
		t.Fatal("node 2 not granted after waiter death")
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}
}

// TestRecoveryAnnihilatesInFlightToken: the token is in flight between
// two survivors when an unrelated crash triggers recovery. The probe sees
// no holder and mints a replacement; the old token is annihilated on
// arrival by its superseded epoch, leaving exactly one live token.
func TestRecoveryAnnihilatesInFlightToken(t *testing.T) {
	cw := newChaosWorld(t, topology.Line(3), 1)
	cw.request(1)
	cw.request(3) // REQUEST 3->2->1
	cw.drain()
	cw.release(1) // PRIVILEGE to 3 now in flight

	// A bystander dies before the token lands; survivors {1,3} still hold
	// a majority of 3 and node 3 coordinates.
	cw.crash(2)
	cw.suspect(2, 3)
	cw.suspect(2, 1)

	// Recovery runs to completion with the old PRIVILEGE still queued
	// behind it: deliver everything.
	cw.drain()

	if !cw.sawEvent(EventRegenerate) {
		t.Fatal("no regeneration although the token was invisible to the probe")
	}
	if !cw.sawEvent(EventStaleDrop) {
		t.Fatal("the in-flight stale-epoch token was not annihilated")
	}
	if got := cw.Grants[3].Count; got != 1 {
		t.Fatalf("node 3 grants = %d, want exactly 1 (minted token only)", got)
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}
}

// TestRecoveryQuorumGate: deaths that leave the survivors without a
// strict majority must not regenerate — a minority partition minting its
// own token would guarantee split-brain.
func TestRecoveryQuorumGate(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(5), 1)
	// Three of five — including the holder — die at once, before any
	// recovery can complete: every probe round stalls on a dead member,
	// and once the minority is evident no further round starts.
	for _, victim := range []mutex.ID{1, 2, 3} {
		cw.crash(victim)
	}
	for _, victim := range []mutex.ID{1, 2, 3} {
		cw.suspect(victim)
		cw.drain()
	}
	if !cw.sawEvent(EventQuorumLost) {
		t.Fatal("no quorum-lost event after losing 3 of 5")
	}
	if cw.sawEvent(EventRegenerate) {
		t.Fatal("minority survivors minted a token")
	}
	if got := cw.tokens(); got != 0 {
		t.Fatalf("live tokens = %d, want 0 (token died with node 1, minority must not mint)", got)
	}
}

// TestRecoveryFalseSuspicionRejoin: a live node is falsely suspected (it
// held the token, so the majority mints a replacement). On heal it is
// re-admitted: its stale token is discarded, its ongoing critical section
// drains without resurrecting the token, and it re-enters under the new
// epoch with a strictly higher generation.
func TestRecoveryFalseSuspicionRejoin(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(3), 3)
	cw.request(3) // node 3 is mid-CS on the original token
	staleGen := cw.Grants[3].Gen

	// The majority {1, 2} suspects 3 (a partition, not a death: no crash).
	cw.suspect(3, 1)
	cw.suspect(3, 2)
	// Keep 3 isolated while the majority recovers: drop traffic crossing
	// the partition.
	cw.dead[3] = true
	cw.drain()
	if !cw.sawEvent(EventRegenerate) {
		t.Fatal("majority did not regenerate the suspected holder's token")
	}
	mintedRoot := mutex.ID(2) // coordinator of {1, 2}
	if !cw.Nodes[mintedRoot].Snapshot().Holding {
		t.Fatalf("coordinator %d does not hold the minted token", mintedRoot)
	}

	// Heal: 3 is heard again; a survivor sponsors its re-admission.
	cw.dead[3] = false
	if err := cw.Nodes[2].PeerUp(3); err != nil {
		t.Fatal(err)
	}
	if err := cw.Nodes[1].PeerUp(3); err != nil {
		t.Fatal(err)
	}
	cw.drain()

	if got := cw.Nodes[3].Epoch(); got == 0 {
		t.Fatal("node 3 did not adopt the post-recovery epoch on rejoin")
	}
	// Its in-CS token is stale: the release must not resurrect it.
	cw.release(3)
	if s := cw.Nodes[3].Snapshot(); s.Holding {
		t.Fatal("rejoined node resurrected its stale token on release")
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens after heal = %d, want exactly 1", got)
	}

	// And it participates again, fenced above everything pre-partition.
	cw.request(3)
	cw.drain()
	if cw.Grants[3].Count != 2 {
		t.Fatalf("node 3 grants = %d, want 2 (one stale, one post-rejoin)", cw.Grants[3].Count)
	}
	if cw.Grants[3].Gen <= staleGen {
		t.Fatalf("post-rejoin generation %d not above stale %d", cw.Grants[3].Gen, staleGen)
	}
}

// TestRecoveryRequestDuringFreezeReissued: an application request that
// arrives while the node is frozen (mid-recovery) cannot be routed yet —
// the coordinator's rebuild does not know it. It must be issued against
// the rebuilt DAG once the reorientation lands.
func TestRecoveryRequestDuringFreezeReissued(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(3), 1)
	cw.crash(2)
	// Node 3 coordinates {1, 3}; its probe to 1 is pending, so 3 is frozen.
	cw.suspect(2, 3)
	if !cw.Nodes[3].Snapshot().Frozen {
		t.Fatal("coordinator not frozen while collecting")
	}
	cw.request(3) // deferred: no REQUEST may leave a frozen node
	for _, f := range cw.Pending {
		if _, isReq := f.Message().(Request); isReq {
			t.Fatalf("frozen node sent %v", f)
		}
	}
	cw.suspect(2, 1)
	cw.drain() // probe, ack, reorient, then the re-issued request

	if cw.Grants[3].Count != 1 {
		t.Fatal("request issued during the freeze was never served")
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}
}

// TestRecoveryCoordinatorDeathHandsOver: the coordinator dies mid-probe;
// the next-highest survivor detects it and restarts the recovery at a
// higher epoch, and the frozen survivors follow the new round.
func TestRecoveryCoordinatorDeathHandsOver(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(5), 1)
	cw.request(1)
	cw.request(3)
	cw.drain()

	cw.crash(1) // holder dies; node 5 will coordinate
	cw.suspect(1)
	// Deliver node 5's probes so the survivors are frozen at epoch 1 with
	// their acks in flight — then the coordinator dies before collecting
	// them. Node 4 must take over with a fresh, higher round.
	cw.deliverTo(2)
	cw.deliverTo(3)
	cw.deliverTo(4)
	cw.crash(5)
	cw.suspect(5)
	cw.drain()

	if got := cw.Grants[3].Count; got != 1 {
		t.Fatalf("waiter 3 grants = %d, want 1 after hand-over recovery", got)
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}
	if got := cw.Nodes[4].Epoch(); got < 2 {
		t.Fatalf("epoch = %d, want >= 2 (restarted round)", got)
	}
}

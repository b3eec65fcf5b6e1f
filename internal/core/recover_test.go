package core

import (
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// chaosWorld drives core nodes synchronously like world, but with a crash
// set: messages addressed to crashed nodes are dropped (as a dead process
// would drop them), and recovery events are recorded.
type chaosWorld struct {
	*world
	dead   map[mutex.ID]bool
	events []Event
}

func newChaosWorld(t *testing.T, tree *topology.Tree, holder mutex.ID) *chaosWorld {
	t.Helper()
	w := &world{t: t, nodes: make(map[mutex.ID]*Node), envs: make(map[mutex.ID]*recEnv)}
	cw := &chaosWorld{world: w, dead: make(map[mutex.ID]bool)}
	cfg := mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
	for _, id := range tree.IDs() {
		env := &recEnv{world: w, id: id}
		n, err := New(id, env, cfg, WithObserver(RecoveryEvents, func(e Event) { cw.events = append(cw.events, e) }))
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		w.nodes[id] = n
		w.envs[id] = env
	}
	return cw
}

// crash marks id dead: its pending inbound traffic is dropped now, and
// future sends to it are dropped on drain.
func (cw *chaosWorld) crash(id mutex.ID) {
	cw.t.Helper()
	cw.dead[id] = true
	kept := cw.pending[:0]
	for _, f := range cw.pending {
		if f.to != id && f.from != id {
			kept = append(kept, f)
		}
	}
	cw.pending = kept
}

// suspectAt reports dead as down at node at (the failure detector's
// verdict), like the live glue would.
func (cw *chaosWorld) suspectAt(at, down mutex.ID) {
	cw.t.Helper()
	if err := cw.nodes[at].PeerDown(down); err != nil {
		cw.t.Fatalf("PeerDown(%d) at node %d: %v", down, at, err)
	}
}

// suspectEverywhere reports down at every live node.
func (cw *chaosWorld) suspectEverywhere(down mutex.ID) {
	cw.t.Helper()
	for _, id := range cw.ids() {
		if !cw.dead[id] && id != down {
			cw.suspectAt(id, down)
		}
	}
}

func (cw *chaosWorld) ids() []mutex.ID {
	ids := make([]mutex.ID, 0, len(cw.nodes))
	for id := mutex.ID(1); int(id) <= len(cw.nodes); id++ {
		ids = append(ids, id)
	}
	return ids
}

// drainAlive delivers all pending traffic among live nodes; messages to
// (or from) crashed nodes are dropped, as the injector and a dead process
// would drop them.
func (cw *chaosWorld) drainAlive() {
	cw.t.Helper()
	for steps := 0; len(cw.pending) > 0; steps++ {
		if steps > 10000 {
			cw.t.Fatal("drainAlive: message storm (recovery loop?)")
		}
		f := cw.pending[0]
		cw.pending = cw.pending[1:]
		if cw.dead[f.to] || cw.dead[f.from] {
			continue
		}
		if err := cw.nodes[f.to].Deliver(f.from, f.msg); err != nil {
			cw.t.Fatalf("Deliver %s %d->%d: %v", f.msg.Kind(), f.from, f.to, err)
		}
	}
}

// tokens counts live tokens among non-crashed nodes.
func (cw *chaosWorld) tokens() int {
	n := 0
	for id, node := range cw.nodes {
		if cw.dead[id] {
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
	holderGen := cw.envs[1].lastGen
	cw.request(3) // waiter: REQUEST travels to 1, FOLLOW_1 = 3
	cw.drainAlive()
	if got := cw.nodes[1].Snapshot().Follow; got != 3 {
		t.Fatalf("FOLLOW_1 = %d, want 3", got)
	}

	cw.crash(1)
	cw.suspectEverywhere(1)
	cw.drainAlive()

	if !cw.sawEvent(EventRegenerate) {
		t.Fatal("no regeneration event despite the token dying with node 1")
	}
	if got := cw.envs[3].grant; got != 1 {
		t.Fatalf("waiter 3 grants = %d, want 1 (re-queued by recovery)", got)
	}
	if got := cw.envs[3].lastGen; got <= holderGen+RegenerationJump-1 {
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
	cw.drainAlive()
	if cw.envs[2].grant != 1 {
		t.Fatal("node 2 not granted after recovery")
	}
	if cw.envs[2].lastGen <= cw.envs[3].lastGen {
		t.Fatalf("post-recovery fencing not monotonic: %d then %d", cw.envs[3].lastGen, cw.envs[2].lastGen)
	}
}

// TestRecoveryKillWaiterExcisesFollow: a queued waiter crashes. The
// rebuild drops it from the holder's FOLLOW chain, so the holder's
// release keeps the token instead of sending it to the dead node.
func TestRecoveryKillWaiterExcisesFollow(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(5), 1)
	cw.request(1)
	cw.request(3)
	cw.drainAlive()

	cw.crash(3)
	cw.suspectEverywhere(3)
	cw.drainAlive()

	if cw.sawEvent(EventRegenerate) {
		t.Fatal("token regenerated although its holder survived")
	}
	if !cw.sawEvent(EventAdopt) {
		t.Fatal("recovery did not adopt the surviving token")
	}
	if got := cw.nodes[1].Snapshot().Follow; got != mutex.Nil {
		t.Fatalf("FOLLOW_1 = %d after recovery, want Nil (dead waiter excised)", got)
	}
	cw.release(1)
	if !cw.nodes[1].Snapshot().Holding {
		t.Fatal("holder released the token toward the dead waiter")
	}
	cw.request(2)
	cw.drainAlive()
	if cw.envs[2].grant != 1 {
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
	cw.drainAlive()
	cw.release(1) // PRIVILEGE to 3 now in flight

	// A bystander dies before the token lands; survivors {1,3} still hold
	// a majority of 3 and node 3 coordinates.
	cw.crash(2)
	cw.suspectAt(3, 2)
	cw.suspectAt(1, 2)

	// Recovery runs to completion with the old PRIVILEGE still queued
	// behind it: deliver everything.
	cw.drainAlive()

	if !cw.sawEvent(EventRegenerate) {
		t.Fatal("no regeneration although the token was invisible to the probe")
	}
	if !cw.sawEvent(EventStaleDrop) {
		t.Fatal("the in-flight stale-epoch token was not annihilated")
	}
	if got := cw.envs[3].grant; got != 1 {
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
		cw.suspectEverywhere(victim)
		cw.drainAlive()
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
	staleGen := cw.envs[3].lastGen

	// The majority {1, 2} suspects 3 (a partition, not a death: no crash).
	cw.suspectAt(1, 3)
	cw.suspectAt(2, 3)
	// Keep 3 isolated while the majority recovers: drop traffic crossing
	// the partition.
	cw.dead[3] = true
	cw.drainAlive()
	if !cw.sawEvent(EventRegenerate) {
		t.Fatal("majority did not regenerate the suspected holder's token")
	}
	mintedRoot := mutex.ID(2) // coordinator of {1, 2}
	if !cw.nodes[mintedRoot].Snapshot().Holding {
		t.Fatalf("coordinator %d does not hold the minted token", mintedRoot)
	}

	// Heal: 3 is heard again; a survivor sponsors its re-admission.
	cw.dead[3] = false
	if err := cw.nodes[2].PeerUp(3); err != nil {
		t.Fatal(err)
	}
	if err := cw.nodes[1].PeerUp(3); err != nil {
		t.Fatal(err)
	}
	cw.drainAlive()

	if got := cw.nodes[3].Epoch(); got == 0 {
		t.Fatal("node 3 did not adopt the post-recovery epoch on rejoin")
	}
	// Its in-CS token is stale: the release must not resurrect it.
	cw.release(3)
	if s := cw.nodes[3].Snapshot(); s.Holding {
		t.Fatal("rejoined node resurrected its stale token on release")
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens after heal = %d, want exactly 1", got)
	}

	// And it participates again, fenced above everything pre-partition.
	cw.request(3)
	cw.drainAlive()
	if cw.envs[3].grant != 2 {
		t.Fatalf("node 3 grants = %d, want 2 (one stale, one post-rejoin)", cw.envs[3].grant)
	}
	if cw.envs[3].lastGen <= staleGen {
		t.Fatalf("post-rejoin generation %d not above stale %d", cw.envs[3].lastGen, staleGen)
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
	cw.suspectAt(3, 2)
	if !cw.nodes[3].Snapshot().Frozen {
		t.Fatal("coordinator not frozen while collecting")
	}
	cw.request(3) // deferred: no REQUEST may leave a frozen node
	for _, f := range cw.pending {
		if _, isReq := f.msg.(Request); isReq {
			t.Fatalf("frozen node sent %v", f)
		}
	}
	cw.suspectAt(1, 2)
	cw.drainAlive() // probe, ack, reorient, then the re-issued request

	if cw.envs[3].grant != 1 {
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
	cw.drainAlive()

	cw.crash(1) // holder dies; node 5 will coordinate
	cw.suspectEverywhere(1)
	// Deliver node 5's probes so the survivors are frozen at epoch 1 with
	// their acks in flight — then the coordinator dies before collecting
	// them. Node 4 must take over with a fresh, higher round.
	cw.deliverTo(2)
	cw.deliverTo(3)
	cw.deliverTo(4)
	cw.crash(5)
	cw.suspectEverywhere(5)
	cw.drainAlive()

	if got := cw.envs[3].grant; got != 1 {
		t.Fatalf("waiter 3 grants = %d, want 1 after hand-over recovery", got)
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}
	if got := cw.nodes[4].Epoch(); got < 2 {
		t.Fatalf("epoch = %d, want >= 2 (restarted round)", got)
	}
}

// Package dagmutex is a faithful, production-grade reproduction of
// Neilsen and Mizuno's DAG-based token algorithm for distributed mutual
// exclusion (ICDCS 1991; Neilsen's 1989 thesis), together with every
// baseline the paper compares against and the experiment harness that
// regenerates its Chapter 6 performance analysis.
//
// # The algorithm
//
// Nodes are arranged in a logical tree whose edges are oriented toward
// the current "sink" by per-node NEXT pointers. A REQUEST travels along
// NEXT pointers, reversing every edge it crosses; the requester becomes
// the new sink. Each sink remembers at most one successor in FOLLOW, so
// the global waiting queue exists only implicitly, distributed across the
// FOLLOW chain. The thesis's token (PRIVILEGE) carries no data and each
// node keeps exactly three variables — HOLDING, NEXT and FOLLOW; this
// implementation adds one integer to each: the fencing generation the
// token transports and the node remembers (see below).
//
// On the best topology — a star — any entry to the critical section costs
// at most three messages (like a centralized lock server) with a
// synchronization delay of a single message (better than one).
//
// # Architecture
//
// The live system is layered: protocol state machines (internal/core and
// the baseline algorithms) are pure event-driven code that never blocks;
// one shared actor runtime (internal/runtime) runs each node — consuming
// its envelopes one at a time under a per-node lock, signaling grants,
// capturing the cluster's first error, and exposing the blocking Session
// API — over a small Link interface; two link layers implement that
// interface, in-process mailboxes (transport.Local, the default Open
// substrate) and framed TCP sockets with batched writes
// (transport.TCPHost, selected with WithTransport(TCP(...))); and the
// sharded lock service runs its per-shard clusters over either substrate
// through a Transport abstraction. Because the runtime is shared,
// application behavior — including fail-fast Acquire errors and the
// timed-out-Acquire recovery path via Session.Granted — is identical in
// process and over the network; pick Local for single-binary embedding,
// tests and benchmarks, and TCP when members are separate processes or
// machines. On both, the algorithm's two hot messages — REQUEST and
// PRIVILEGE — travel by value from the state machine to the wire and
// back (core.Msg, never boxed into an interface), so a grant that moves
// the token allocates nothing; every layer on the way is an optional
// capability probed once at construction, and a node, codec or link
// that lacks one is handed the same message boxed, in the same cluster.
//
// # Fencing tokens and leases
//
// The thesis's PRIVILEGE message carries no data — correct under its
// fail-free model, but a production lock service needs two more things:
// a way for downstream systems to reject a superseded holder, and a
// bound on how long one holder can wedge everyone else. The token
// therefore carries a generation number, incremented on every grant, so
// generations are strictly monotonic across the whole cluster (the
// token serializes all grants; the counter rides along for free, over
// both link layers). Session.Acquire returns it as Grant.Generation,
// and the lock service exposes it per resource as LockHold.Fence:
//
//	hold, err := svc.Acquire(ctx, "account:alice")
//	if err != nil { ... }
//	defer svc.Release("account:alice")
//	// Pass the fence to every store touched under the lock; the store
//	// keeps the highest fence it has seen and refuses anything lower,
//	// so a paused-then-resumed holder cannot clobber its successor.
//	if err := store.Write(hold.Fence, value); err != nil { ... }
//
// Every hold is also a lease: LockServiceConfig.Lease (default 30s)
// bounds it, a per-shard sweeper forcibly releases holds that outlive
// their deadline, and the late Release observes ErrLeaseExpired — the
// signal to abandon, not commit, work done since the deadline.
// ReleaseHold releases an exact hold by its fence, the precise path for
// lease-aware code; a Release of something never held returns
// ErrNotHeld. The same sweeper recovers slots abandoned by timed-out
// Acquires, so one stuck or vanished client costs its shard one lease
// interval instead of wedging it forever. See examples/leases for the
// full pattern.
//
// # Failure model
//
// The thesis assumes fail-free nodes; this reproduction does not. A
// heartbeat failure detector (internal/failure) runs over the same
// links as the protocol and turns silence — or transport evidence such
// as a TCP connection reset when a peer process dies — into per-peer
// down verdicts, delivered to the protocol as membership events rather
// than cluster-fatal errors. On a verdict the highest surviving node
// coordinates an epoch-numbered recovery: a probe round freezes the
// survivors and collects token/request state, then a reorientation
// round rebuilds the DAG, re-queues the waiters the dead node stranded,
// and — if the token died with the crashed node or in flight from it —
// regenerates it with a generation jumped 2^20 above the highest any
// survivor observed — headroom covering up to a million grants the dead
// holder issued locally without messages (a bound, not an absolute; see
// the README's failure-model section). Messages carry the epoch, and
// stale-epoch messages are annihilated on delivery, so exactly one live
// token exists per epoch and fencing generations stay strictly
// monotonic across crashes within that bound.
//
// # Pipelined handoff and the cohort regrant
//
// Two hot-path mechanisms relax how a release proceeds without touching
// what the protocol guarantees. Session.ReleaseRequest fuses a release
// with the holder's next request under one handler turn: over the DAG
// protocol the re-request rides the outgoing PRIVILEGE itself as a
// piggybacked flag, so a contended two-node rotation costs one message
// per entry instead of two. The release is pipelined — ReleaseRequest
// returns once the token handoff is locally durable (queued on the
// link), not when the successor acknowledges it; the caller's next
// grant arrives later on Session.Granted and is awaited with
// Session.Await. Session.Regrant goes further for waiters on the same
// node: the holder hands the section to the next local claimant with no
// protocol traffic at all — to its peers the node simply held the token
// a little longer — and only the fencing generation advances, so fences
// stay strictly monotonic and unique per entry. The lock service uses
// both automatically: a contended release regrants to a waiting local
// claimant up to LockServiceConfig.CohortBudget consecutive times
// (default DefaultCohortBudget; negative disables) before it must take
// the protocol path, which bounds how long remote requesters already
// queued in the DAG can be bypassed and so preserves
// starvation-freedom. Mid-recovery — frozen in a probe round, or
// holding a stale-epoch token — Regrant refuses (false, nil) and the
// release falls back to the protocol.
//
// What recovery cannot close: a falsely-suspected live holder coexists
// with the regenerated token until it is re-admitted (it rejoins the
// first time it hears newer-epoch traffic, discarding its stale token).
// During that window mutual exclusion is violated and the fencing
// generation is the defense — the stale side's fences sit a full
// regeneration jump below the new world's, so fenced stores reject its
// writes. Regeneration is quorum-gated: a minority partition never
// mints a second token. Crashed members' sessions fail fast with
// ErrNodeDown; survivors' blocked Acquires are served by the rebuilt
// chain. The chaos battery (internal/conformance) drives all of this
// identically over both link layers, `dagtrace -chaos` renders a
// recovery step by step, and the repository benchmark's failover_local
// workload (go run ./bench) measures the outage a holder crash costs.
//
// # Using the library
//
// The v2 API is options-first: Open is the single cluster entrypoint,
// and functional options select the substrate and the subsystems.
//
//	tree := dagmutex.Star(8)
//	cluster, err := dagmutex.Open(tree, 1) // token starts at node 1
//	if err != nil { ... }
//	defer cluster.Close()
//
//	s := cluster.Session(3) // a *Session
//	grant, err := s.Acquire(ctx)
//	if err != nil { ... }
//	// ... critical section, fenced by grant.Generation ...
//	if err := s.Release(); err != nil { ... }
//
// The same call composes every subsystem: WithTransport(Local or
// TCP(listen)) selects the substrate, WithFailureDetection arms the failure
// subsystem, WithINIT derives the orientation at runtime via the
// Figure 5 flood (event-driven, bounded by WithStartupContext),
// WithInjector installs a deterministic fault plan, and WithTraceObserver
// taps the event stream, recovery events included. One member of a
// deployed cluster is OpenPeer(tree, holder, id, ...).
//
// For the deterministic simulator used by the experiments, see the
// Simulate function and the cmd/dagbench tool (one engine,
// internal/sim + internal/cluster, hosts every protocol).
//
// # Clients that are not DAG members
//
// Every Session above belongs to a vertex of the token DAG. The client
// surface removes that cap: a process that is not a member can Dial a
// TCP member's address and acquire through it —
//
//	s, err := dagmutex.Dial(cluster.Addr(2))
//	if err != nil { ... }
//	defer s.Close()
//	grant, err := s.Acquire(ctx) // fence + lease deadline, over the wire
//	if err != nil { ... }
//	if err := s.Release(); err != nil { ... }
//
// and DialLockService gives the same split for the lock service. The
// member admits its clients under configurable bounds — a
// per-connection in-flight depth and an optional listener-wide
// token-bucket rate, both set with WithClientQueue(depth, rate,
// burst); past either, it sheds with ErrClientBusy instead of queueing
// without bound. It propagates context cancellation into the queue (a
// grant that races a cancel is handed straight back, so nothing
// leaks), bounds every remote hold with a lease, and releases whatever
// a disconnected client still held — so a small DAG of members serves
// a client population far larger than the tree.
//
// Admitted requests coalesce: N client waiters on one resource cost the
// member a single DAG acquire, and the arriving grant then rotates
// through the cohort locally (the Regrant path below), each waiter
// receiving its own strictly-increasing fence. Cancelling one coalesced
// waiter — or losing its connection — releases only that waiter's
// claim; the rest of the cohort keeps its place. On a hot key the
// protocol cost amortizes to well under one message per grant, which
// is what lets thousands of dialed clients share one key without
// melting the DAG. The wire protocol is documented in
// internal/transport, next to the DAG codec.
//
// Coalescing removes the DAG messages from a hot key's handoff, not the
// two socket crossings (release up, next grant down). Callers of one
// dialed connection that want the same lock at once therefore share a
// lane inside the connection — one per shard of a lock service (its
// member says in its handshake hello how many shards its keys hash
// into), one per resource behind a gateway. Once two or more wait, the
// lane orders a fence run — one marked acquire, answered with a block of
// consecutive fences under one lease, as many as the cohort budget has
// left — and hands those fences to its waiters in arrival order with no
// frame at all, ending the run in one. The member reserves the run by
// advancing the fencing generation before it answers and keeps it as
// one hold under the run's last fence, so fences stay strictly
// increasing whatever becomes of the client (they were never
// consecutive: an early-ended run, like a recovery, skips numbers), and
// Hold.Expires is the run's one deadline for every hold out of it.
// There is nothing to configure; a caller alone in its lane sends what
// it always sent.
//
// For client populations in the thousands, OpenGateway (or the
// standalone cmd/daggate process) adds a gateway tier: it serves the
// same CLIENT protocol, routes each resource to a fixed member (so one
// member's cohort absorbs the whole key), multiplexes every client
// over one upstream connection per member (where the waiters on one
// shard of the member's meet in one lane, so the shard rotates through
// fence runs inside the gateway), applies its own admission bounds at the edge, and fails
// over to the next live member if the routed one dies.
//
// The client tier's own cost is held down the way the member grant
// path's is. Both ends of a CLIENT connection write through the frame
// queue member links use: a frame is built in a pooled buffer and
// written inline when the connection is idle, and frames sent while a
// write is in progress leave together in one writev, in the order they
// were sent — so callers sharing a connection (a gateway's whole
// population shares one per member) pay one syscall per batch. Both
// ends read through one decoder that parses frames in the connection's
// buffer. Nothing is allocated per request: pending entries, requests,
// resource-name strings and worker goroutines are recycled per
// connection, bounded by the traffic the connection has carried, and a
// request is itself the context its acquire runs under. An
// acquire+release over loopback is budgeted at 2 heap objects against a
// member and 4 through a gateway (TestAllocBudgetClientRoundTrip,
// TestAllocBudgetGatewayRoundTrip; both measure 0), and the gateway's
// /metrics reports frames written against write calls made.
//
// # The sharded lock service
//
// The paper's algorithm arbitrates one critical section; OpenLockService
// scales it to many named resources by running M independent token DAGs
// (one per shard) and hashing each resource key to a shard. Resources in
// different shards are locked fully concurrently:
//
//	svc, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{Shards: 8, Nodes: 4})
//	if err != nil { ... }
//	defer svc.Close()
//
//	hold, err := svc.Acquire(ctx, "account:alice")
//	if err != nil { ... }
//	// ... critical section for account:alice, fenced by hold.Fence ...
//	if err := svc.Release("account:alice"); err != nil { ... }
//
// Members lock through per-node clients (svc.On(id)), and svc.Stats()
// aggregates per-shard grant, message and wait-time counters. The same
// shard code runs distributed across real processes over TCP: each
// member process calls OpenLockService with WithTransport(TCP(listen))
// and its own WithMember id, exchanges svc.Addr() values out of band,
// and svc.Connect()s the full book — see examples/lockservicetcp. TCP
// members additionally serve dialed non-member clients
// (DialLockService) on the same listener. The repository benchmark
// (go run ./bench) measures members over Local and TCP, sharded and
// not, and dialed clients direct and through a gateway; see
// examples/lockservice and examples/clients.
//
// Two usage rules follow from the paper's model. A request cannot be
// cancelled: when Acquire fails on its context, the service recovers in
// the background (the token is released when it eventually arrives), but
// that member's slot on the resource's shard stays busy until then. And a
// goroutine holding one resource should not acquire a second through the
// same member node if the two keys may share a shard — the nested Acquire
// waits on the slot its caller already holds. With leases enabled (the
// default) this self-deadlock is bounded, not permanent: the outer
// hold's lease expires, the service reclaims the slot, and the nested
// Acquire proceeds — but the outer hold is then invalid (its Release
// reports ErrLeaseExpired), so it is still a bug, just a recoverable
// one. Release first, or acquire through different member nodes.
//
// # Adaptive topology
//
// The thesis's performance analysis makes the initial tree shape the
// dominant cost term: a chain pays O(diameter) messages per grant, the
// star 3 − 5/N + 2/N² under uniform demand. WithTopologyPolicy picks
// how the DAG's shape moves as requests pass. Static (the default) is
// the paper's algorithm verbatim: each grant that moves the token costs
// the request's tree path to the holder plus one PRIVILEGE, exactly.
// PathCompress() applies the Naimi–Trehel reversal: every node a
// REQUEST traverses points its NEXT pointer directly at the request's
// origin rather than at the neighbor that forwarded it, a side effect
// of ordinary request traffic — no extra messages, no new frame types.
//
//	svc, err := dagmutex.OpenLockService(
//	    dagmutex.LockServiceConfig{Shards: 8, Nodes: 32, Tree: dagmutex.Line},
//	    dagmutex.WithTopologyPolicy(dagmutex.PathCompress()))
//
// Compression is a trade, not a free win. Under uniform demand it costs
// ≈ H(N−1) messages per grant over N members, whatever the initial tree
// (Lavault's average case of path reversal), while the static star stays
// below 3. So it wins on chain, radial and k-ary trees and loses to the
// default star: at 32 members, uniform demand, 4.01 against 2.85; under
// Zipf(1.2), 2.93 against 2.53. A 32-node chain drops from 10.67 messages
// per grant to 2.95 under Zipf with compression. internal/lockservice's
// TestTopologyCellCosts pins every shape × demand × size × policy cell.
//
// # Observability
//
// Three options light up the stack without touching the hot path's
// allocation budget. WithTelemetry(NewTelemetry()) installs a metrics
// registry — atomic counters, pull gauges and fixed-bucket latency
// histograms, all allocation-free after registration — that the core,
// runtime, lock service and gateway tiers register into (per-shard
// grant/release/expiry counters, queue-depth gauges, wait and hold
// latency quantiles, gateway admission counters). WithTraceObserver,
// the one public observer, taps the causal event stream: every request,
// forward, privilege dispatch, grant, release, regrant, expiry and
// recovery step is delivered as a TraceEvent carrying the (Origin,
// Fence) pair already on the wire, so the fencing token doubles as a
// cluster-wide causal trace ID — within one shard, TraceGrant fences
// are strictly increasing in stream order. Recovery steps arrive as
// TraceRecovery with the step's name (PEER-DOWN, PROBE, REGENERATE,
// ...) in Detail. The observer runs inside
// protocol handlers and must not block, allocate or call back into
// the library. WithDebugAddr serves the registry as Prometheus text
// on /metrics plus the standard /debug/pprof profiles for the
// lifetime of the opened object:
//
//	svc, err := dagmutex.OpenLockService(
//	    dagmutex.LockServiceConfig{Shards: 8, Nodes: 4},
//	    dagmutex.WithTelemetry(dagmutex.NewTelemetry()),
//	    dagmutex.WithDebugAddr("127.0.0.1:0"),
//	    dagmutex.WithTraceObserver(func(e dagmutex.TraceEvent) { /* count, sample */ }))
//
// Read the registry back with Cluster.Metrics, LockService.Telemetry
// or Gateway.Metrics, the bound endpoint address with the matching
// DebugAddr method, or serve a registry by hand with ServeTelemetry.
// All three options apply uniformly to Open, OpenLockService and
// OpenGateway (cmd/daggate exposes the same endpoints with -debug).
// The instrumented steady state stays at zero allocations per cycle
// (committed budget tests enforce it) and the repository benchmark
// reports the end-to-end tax as trace.overhead_share. See
// examples/telemetry for the full pattern, scrape included.
//
// # Virtual time
//
// Every timer in the stack reads time through a Clock — lease
// deadlines and the expiry sweeper (of a lock service and of a Dial
// proxy alike), heartbeat failure detection, grant timestamps. The
// default is the system clock. WithClock(NewVirtualClock())
// swaps in a deterministic one: nothing expires or ticks until the
// test calls VirtualClock.Advance, which fires the timers due, in
// order, on the advancing goroutine — so the test asserts immediately
// after Advance returns, with no sleeps and no polling:
//
//	v := dagmutex.NewVirtualClock()
//	svc, err := dagmutex.OpenLockService(
//	    dagmutex.LockServiceConfig{Shards: 1, Nodes: 2,
//	        Lease: 50 * time.Millisecond, SweepInterval: 5 * time.Millisecond},
//	    dagmutex.WithClock(v))
//	svc.Acquire(ctx, "r")
//	v.Advance(200 * time.Millisecond)     // the lease expires here
//	err = svc.Release("r")                // ErrLeaseExpired, deterministically
//
// WithClock applies to the Local substrate only; TCP sockets live on
// real time, so combining it with WithTransport(TCP(...)) is an
// error. For whole-cluster simulation at scale — thousands of nodes,
// seeded fault schedules against the recovery protocol, simulated
// hours in wall-clock seconds — the internal/simharness package and
// `dagsim -virtual` drive the same core state machines open-loop on
// that one simulator, entirely on virtual time;
// `dagsim -virtual -capacity` publishes the
// capacity-planning curves as BENCH_sim.json.
package dagmutex

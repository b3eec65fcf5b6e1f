package dagmutex

import (
	"fmt"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
)

// ID identifies a node; valid identifiers are positive.
type ID = mutex.ID

// Nil is the null node identifier (the paper's 0 value).
const Nil = mutex.Nil

// Tree is an undirected logical tree over nodes 1..N; the DAG structure is
// derived by orienting its edges toward the token holder.
type Tree = topology.Tree

// Topology constructors re-exported from the topology package.
var (
	// Star returns the thesis's best ("centralized") topology: node 1 in
	// the center, all others leaves. Worst-case cost: 3 messages.
	Star = topology.Star
	// Line returns the worst topology: a path. Worst-case cost: N.
	Line = topology.Line
	// KAry returns a complete k-ary tree, a balanced middle ground.
	KAry = topology.KAry
	// RadiatingStar returns a center with equal-length arms — the shape
	// Raymond's paper recommended and §6 shows is not optimal.
	RadiatingStar = topology.RadiatingStar
	// NewTree builds a tree from an explicit edge list.
	NewTree = topology.New
)

// Message is a protocol wire message.
type Message = mutex.Message

// Config carries cluster-wide construction parameters; see NewNode for
// direct protocol embedding.
type Config = mutex.Config

// Node is the DAG protocol state machine itself, for embedding into a
// custom transport. It is not safe for concurrent use: serialize Request,
// Release and Deliver calls (see internal/transport for two reference
// integrations).
type Node = core.Node

// Env is the surface a Node uses to send messages and report grants.
type Env = mutex.Env

// NewNode constructs a raw protocol node. Most applications should use
// Open (or OpenPeer) instead.
func NewNode(id ID, env Env, cfg Config) (*Node, error) {
	return core.New(id, env, cfg)
}

// TreeConfig builds the Config for running the DAG algorithm on tree with
// the token initially at holder — the steady state established by the
// thesis's Figure 5 INIT procedure.
func TreeConfig(tree *Tree, holder ID) (Config, error) {
	if holder == Nil || int(holder) > tree.N() {
		return Config{}, fmt.Errorf("dagmutex: holder %d not in tree of %d nodes", holder, tree.N())
	}
	return Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}, nil
}

// Session is the blocking application API over one member node: Acquire
// waits for the critical section and returns the Grant (fencing
// generation plus grant time), TryAcquire enters only when no messages
// are needed, and Release leaves the section.
type Session = transport.Session

// Grant is one critical-section entry: the fencing generation the
// extended PRIVILEGE token carried (strictly monotonic across the
// cluster), the local wall-clock grant time, and — for remote client
// grants — the lease deadline the member attached.
type Grant = runtime.Grant

// LockService is a sharded multi-resource lock manager over the DAG-token
// core: M independent token DAGs (one per shard), with resource keys
// mapped to shards by a stable hash. Acquire(ctx, resource) returns a
// LockHold carrying the resource's fencing token and lease deadline;
// Release(resource) unlocks it. Resources in different shards are held
// fully concurrently, every hold is bounded by the configured lease (the
// service force-releases expired holds), and fencing tokens are strictly
// monotonic per shard. See internal/lockservice for the design notes.
type LockService = lockservice.Service

// LockHold is one live grant of a resource: its fencing token (pass it to
// downstream stores; reject writes fenced lower) and lease deadline.
type LockHold = lockservice.Hold

// Lock-hold lifecycle errors.
var (
	// ErrNotHeld reports a Release of a resource the member does not hold.
	ErrNotHeld = lockservice.ErrNotHeld
	// ErrLeaseExpired reports a Release that arrived after the hold's
	// lease ran out and the service already reclaimed the resource.
	ErrLeaseExpired = lockservice.ErrLeaseExpired
)

// LockServiceConfig sizes a LockService: shard count, member nodes per
// shard, and the per-shard tree topology.
type LockServiceConfig = lockservice.Config

// LockClient is the lock-service view of one member node; obtain one with
// LockService.On. Non-member processes get the same surface by dialing a
// TCP member: see DialLockService.
type LockClient = lockservice.Client

// LockStats aggregates a LockService's per-shard grant, message and
// wait-time counters.
type LockStats = lockservice.Stats

// LockTransport is the messaging substrate a LockService runs its shards
// over: in-process mailboxes by default, or real TCP between member
// processes. See LockServiceConfig.Transport.
type LockTransport = lockservice.Transport

// TCPLockTransport runs this process's member of every lock-service
// shard behind one TCP listener; OpenLockService with
// WithTransport(TCP(listen)) constructs one per member process (or use
// lockservice.NewTCPTransport for manual wiring).
type TCPLockTransport = lockservice.TCPTransport

// FailureConfig tunes the heartbeat failure detector: how often members
// heartbeat each other and how long silence lasts before a peer is
// suspected dead. See the "Failure model" section of the package
// documentation.
type FailureConfig = failure.Config

// FaultInjector is the deterministic fault plan chaos tests drive:
// crash nodes, sever links, partition and heal. Install it with
// WithInjector (or on a LocalLockTransport).
type FaultInjector = failure.Injector

// NewFaultInjector returns an empty fault plan.
func NewFaultInjector() *FaultInjector { return failure.NewInjector() }

// ErrNodeDown marks per-node death: session operations on a crashed
// member return it (wrapped), while the surviving members recover and
// keep serving.
var ErrNodeDown = runtime.ErrNodeDown

// MemberEvent is one membership observation (peer down or up) exposed
// on Session.Membership.
type MemberEvent = runtime.MemberEvent

// LocalLockTransport runs every lock-service member in this process;
// arm its Failure field to give every shard heartbeat failure detection
// and per-shard crash failover.
type LocalLockTransport = lockservice.LocalTransport

// Package lockservice layers a sharded, multi-resource lock manager over
// the DAG-token core. The thesis's algorithm arbitrates one critical
// section per run; a lock service has to arbitrate many named resources at
// once. Token-based schemes shard naturally — one token DAG per shard, no
// shared state between shards — so the service runs M independent DAG
// instances over the live mailbox transport and maps each resource key to
// a shard with a stable hash. Resources in different shards are locked
// fully concurrently; resources that collide in one shard share that
// shard's token (the classic coarse-sharding trade-off, tunable via
// Config.Shards).
//
// Each shard is an N-node cluster on its own tree, modeling N application
// servers that all participate in every shard. The initial token holder
// rotates across shards so no single node starts out owning every token.
// Within one node and one shard the paper's one-outstanding-request rule
// applies, so the service serializes local acquirers per (node, shard)
// slot; cross-shard acquires never contend.
//
// The service is substrate-agnostic: shards run over any Transport. The
// default LocalTransport hosts every member in one process; TCPTransport
// hosts this process's member of every shard behind one TCP listener, so
// a set of processes (one Service each, same Config, distinct members)
// forms one distributed lock service.
//
// Two hardening layers separate the service from the bare paper
// algorithm. Every Acquire returns a Hold carrying a fencing token — the
// generation number the extended PRIVILEGE message transports, strictly
// monotonic per shard — which callers pass to downstream stores so writes
// from a superseded holder can be rejected. And every hold is a lease: it
// carries a deadline, a per-shard sweeper forcibly releases holds that
// outlive it (so one stuck client cannot wedge a shard forever), and a
// late Release of an expired hold is rejected with ErrLeaseExpired. The
// same sweeper recovers slots abandoned by timed-out Acquires.
//
// The hold lifecycle itself — the per-(node, shard) caller queue, lease,
// cohort handoff, expiry markers and recovery — is runtime.Slot, driven
// by one runtime.Sweeper per shard; this package owns what is the
// service's: routing keys to shards and members, Hold, the counters and
// telemetry fed by each slot's end-of-hold callback, and the rebalancer.
package lockservice

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/metrics"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// Sentinel errors for the hold lifecycle: the runtime.Slot values, so a
// local caller, a dialed client and a gateway client all match the same
// pair with errors.Is.
var (
	// ErrNotHeld reports a Release of a resource the member node does not
	// currently hold through that slot (never acquired, already released,
	// or the slot holds a different resource).
	ErrNotHeld = runtime.ErrNotHeld
	// ErrLeaseExpired reports a Release that arrived after the hold's
	// lease deadline passed and the sweeper force-released it. The caller
	// no longer owns the resource — another member may hold it under a
	// higher fencing token — so any work done since the deadline must not
	// be committed.
	ErrLeaseExpired = runtime.ErrLeaseExpired
)

// DefaultLease is the hold deadline applied when Config.Lease is zero.
const DefaultLease = runtime.DefaultLease

// Defaults applied by Config validation when the sizing fields are zero.
const (
	// DefaultShards is the shard count applied when Config.Shards is 0.
	DefaultShards = 8
	// DefaultNodes is the member count applied when Config.Nodes is 0.
	DefaultNodes = 4
)

// Hold is one live grant of a resource: the fencing token to pass to
// downstream systems and the lease deadline after which the service
// reclaims the resource.
type Hold struct {
	// Resource is the locked resource name.
	Resource string
	// Shard is the shard the resource hashes to.
	Shard int
	// Node is the member node the resource is held through.
	Node mutex.ID
	// Fence is the fencing token: the grant's generation number, strictly
	// monotonic across all grants of the shard's token (over Local and TCP
	// alike). Hand it to every downstream store touched under the lock and
	// have the store reject writes fenced with a lower number.
	Fence uint64
	// Expires is the lease deadline; past it the service force-releases
	// the hold and a late Release returns ErrLeaseExpired. Zero when the
	// service runs with leases disabled (Config.Lease < 0).
	Expires time.Time
}

// Config sizes the service.
type Config struct {
	// Shards is the number of independent DAG-token instances. More shards
	// mean more resources can be held concurrently. Default 8.
	Shards int
	// Nodes is the number of member nodes participating in every shard
	// cluster, modeling the application servers of a deployment. Default 4.
	Nodes int
	// Tree builds the per-shard topology over n nodes. Default Star, the
	// thesis's best shape (at most three messages per entry). Every
	// participating process must use the same deterministic Tree.
	Tree func(n int) *topology.Tree
	// Transport is the messaging substrate shards run over. Default
	// LocalTransport (every member in this process). Distributed members
	// pass a TCPTransport instead; the service takes ownership and closes
	// it on Close.
	Transport Transport
	// Lease bounds how long one Acquire may hold a resource before the
	// per-shard sweeper forcibly releases it. 0 means DefaultLease; a
	// negative value disables expiry (holds last until Release, as in the
	// paper's fail-free model).
	Lease time.Duration
	// SweepInterval is how often each shard's sweeper checks for expired
	// leases and abandoned grants. 0 derives it from the lease (a quarter
	// of it, clamped to [1ms, 1s]).
	SweepInterval time.Duration
	// CohortBudget bounds the cohort handoff: when a release finds more
	// local waiters queued on the same slot, the service may hand the
	// grant straight to the next one — no token movement, no messages,
	// just a fresh fencing generation — at most this many times in a row
	// before the token must take the ordinary protocol path (serving any
	// remote requesters). 0 means DefaultCohortBudget; negative disables
	// cohort handoffs entirely.
	CohortBudget int
	// Topology selects how each shard's DAG adapts to the request stream.
	// The zero value is the static policy: the tree built at New stays
	// fixed, exactly the pre-adaptive behavior.
	Topology Topology
	// Telemetry, when set, registers the service's live metrics on the
	// registry: per-shard grant/release/regrant/expiry/recovery counters,
	// msgs-per-grant and hops-per-grant gauges, and acquire-wait plus
	// hold-duration histograms (p50/p95/p99). Gauges are pull-based —
	// they read the shard counters only when the registry is scraped —
	// and the histograms are wait-free atomics, so enabling telemetry
	// does not add locks or allocations to the acquire hot path.
	Telemetry *telemetry.Registry
	// TraceObserver, when set, receives the structured trace stream of
	// every locally hosted member: the protocol chain of every grant
	// (request, forwards, privilege, grant — see core.Event),
	// the service-level lifecycle around it (release, regrant, expiry,
	// tagged with the resource name), and recovery events, each stamped
	// with its shard. Called concurrently from protocol and service
	// goroutines; it must not block and should not allocate.
	TraceObserver func(telemetry.TraceEvent)
	// DebugAddr, when non-empty, serves the debug endpoints on it for the
	// service's lifetime: Prometheus text metrics on /metrics and the
	// pprof profiles on /debug/pprof/. Use "127.0.0.1:0" for a fresh
	// loopback port (the bound address is DebugAddr() on the service).
	// When Telemetry is unset a fresh registry is installed so the
	// endpoints have content.
	DebugAddr string
	// Clock is the time source the service runs on: lease deadlines,
	// sweeper cadence, rebalance cadence, acquire-wait measurement. Nil
	// means the real clock. Tests and the simulation harness install a
	// vclock.Virtual so simulated hours of lease churn pass under test
	// control; pair it with a LocalTransport carrying the same clock so
	// the protocol layer below agrees on time.
	Clock vclock.Clock
}

// Topology is a per-shard adaptive-topology policy. Every participating
// process of a distributed deployment must use the same policy, like the
// other shape-determining Config fields.
type Topology struct {
	// PathCompression switches the per-shard DAG's edge reversal to the
	// Naimi–Trehel rule: every node a request passes through re-points
	// its NEXT edge directly at the requester, collapsing the forwarding
	// chain the request traversed. Purely local — no extra messages, no
	// coordination — and drives the expected request path to O(log n)
	// under contention regardless of the initial tree.
	PathCompression bool
	// RebalanceEvery, when positive, starts a per-shard rebalancer that
	// periodically re-roots the shard's DAG toward its observed hottest
	// requester (the member with the most grants since the last pass),
	// using the planned-reorient epoch machinery: the reshape is refused
	// while a recovery is in flight and never regenerates the token, so
	// fencing stays strictly monotonic across reshapes. Implies nothing
	// about compression; the two compose. Over a distributed transport
	// each process nominates from the grants it observed locally, and
	// only the process whose member currently has the token reshapes.
	RebalanceEvery time.Duration
}

// DefaultCohortBudget is the consecutive-local-handoff bound applied
// when Config.CohortBudget is zero.
const DefaultCohortBudget = runtime.DefaultCohortBudget

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Nodes <= 0 {
		c.Nodes = DefaultNodes
	}
	if c.Tree == nil {
		c.Tree = topology.Star
	}
	c.Clock = vclock.Or(c.Clock)
	if c.Transport == nil {
		c.Transport = LocalTransport{Clock: c.Clock}
	}
	if c.Lease == 0 {
		c.Lease = DefaultLease
	}
	if c.CohortBudget == 0 {
		c.CohortBudget = DefaultCohortBudget
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = runtime.SweepCadence(c.Lease)
	}
	return c
}

// Service is a sharded multi-resource lock manager. All methods are safe
// for concurrent use.
//
// Two usage rules follow from the paper's model. First, a request cannot
// be cancelled: when an Acquire fails on its context, the token still
// arrives eventually, and the shard sweeper releases it and recovers the
// slot — but until then, that (node, shard) slot is busy. Second, one
// goroutine should not acquire a second resource through the same
// (node, shard) slot while holding the first: if two keys collide in one
// shard, the nested Acquire waits on the slot its caller already holds.
// With leases enabled this self-deadlock is bounded rather than permanent
// — the outer hold's lease expires, the sweeper reclaims the slot, and
// the nested Acquire proceeds — but the outer hold is then invalid (its
// Release returns ErrLeaseExpired), so it is still a bug, just a
// recoverable one. Release the first key before acquiring a
// possibly-colliding second, or acquire them from different member nodes.
type Service struct {
	cfg    Config
	shards []*shard
	debug  *telemetry.Server // non-nil when Config.DebugAddr was set

	closeOnce sync.Once
	done      chan struct{} // closed by Close; stops the shard rebalancers
}

// shard is one DAG-token instance: a live cluster plus per-node acquire
// slots and counters. Over a distributed substrate only the locally
// hosted members have slots; the rest are nil.
type shard struct {
	index   int
	home    mutex.ID // initial token holder
	route   mutex.ID // default member for service-level Acquire: home if hosted, else lowest hosted
	cluster Cluster
	slots   []*runtime.Slot  // indexed by id-1; one per hosted member
	sweeper *runtime.Sweeper // enforces leases and recovers the hosted slots
	done    <-chan struct{}  // service-wide close signal
	clk     vclock.Clock     // never nil; sweeps, waits and hold durations run on it

	// Telemetry instruments; nil when Config.Telemetry is unset. The
	// histograms are wait-free atomics fed on the hot path; every gauge
	// reads the counters below at scrape time only.
	waitHist *telemetry.Histogram
	holdHist *telemetry.Histogram
	// obs is Config.TraceObserver stamping every event with the shard
	// index; nil when no trace observer is configured.
	obs func(telemetry.TraceEvent)

	// mu guards every counter below plus the wait reservoir, so a Stats
	// snapshot is one consistent cut of the shard: grants, releases and
	// expiries taken under the same lock can never disagree transiently
	// (previously these were independent atomics read field by field).
	// The cost is nil: the grant path already took mu for the wait
	// reservoir, and folding the counters into the same hold replaces
	// four separate atomic RMWs.
	mu         sync.Mutex
	grants     int64
	releases   int64 // successful Releases (cohort regrants included)
	regrants   int64 // releases served by a cohort handoff (no token move)
	expired    int64 // holds force-released by the sweeper
	recoveries int64 // recovery events observed (requires telemetry or a trace observer)
	fence      uint64
	hops       int64 // request-path hops behind all grants
	reorients  int64 // planned reshapes this process initiated
	// nodeGrants counts grants per member observed by this process, the
	// rebalancer's heat signal; len == Nodes, indexed by id-1.
	nodeGrants []int64
	waits      []float64 // reservoir of per-grant waits, milliseconds
	waitsSeen  int       // total grants observed, for reservoir replacement
	lastGrants []int64   // nodeGrants snapshot at the last rebalance pass

	// stopRebal withdraws the rebalancer's tick chain; nil when
	// rebalancing is off.
	stopRebal func()
}

// maxWaitSamples bounds the per-shard wait reservoir so a long-lived
// service does not grow memory with grant count; beyond it, samples are
// replaced uniformly at random (an unbiased reservoir).
const maxWaitSamples = 8192

// New starts the service: cfg.Shards shard clusters of cfg.Nodes members
// each over cfg.Transport. Callers must Close it to stop the shard
// goroutines (and the transport). Over a distributed transport, every
// participating process calls New with the same Shards/Nodes/Tree so all
// members derive identical shard configurations.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.DebugAddr != "" && cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s := &Service{cfg: cfg, shards: make([]*shard, 0, cfg.Shards), done: make(chan struct{})}
	for i := 0; i < cfg.Shards; i++ {
		tree := cfg.Tree(cfg.Nodes)
		if tree.N() != cfg.Nodes {
			s.Close()
			return nil, fmt.Errorf("lockservice: Tree(%d) built %d nodes", cfg.Nodes, tree.N())
		}
		// Rotate initial token ownership so one node does not start out
		// holding every shard's token.
		home := mutex.ID(1 + i%cfg.Nodes)
		mcfg := mutex.Config{IDs: tree.IDs(), Holder: home, Parent: tree.ParentsToward(home)}
		if err := mcfg.Validate(); err != nil {
			s.Close()
			return nil, fmt.Errorf("lockservice: shard %d: %w", i, err)
		}
		sh := &shard{index: i, home: home, route: mutex.Nil,
			slots: make([]*runtime.Slot, cfg.Nodes), done: s.done, clk: cfg.Clock,
			nodeGrants: make([]int64, cfg.Nodes), lastGrants: make([]int64, cfg.Nodes)}
		if user := cfg.TraceObserver; user != nil {
			sh.obs = func(e telemetry.TraceEvent) {
				e.Shard = int32(sh.index)
				user(e)
			}
		}
		builder := sh.builder(cfg.Topology.PathCompression, cfg.Telemetry != nil)
		cluster, err := cfg.Transport.StartShard(i, builder, mcfg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("lockservice: shard %d: %w", i, err)
		}
		sh.cluster = cluster
		var hosted []*runtime.Slot
		for n := 0; n < cfg.Nodes; n++ {
			h := cluster.Session(mutex.ID(n + 1))
			if h == nil {
				continue // member hosted by another process
			}
			sh.slots[n] = runtime.NewSlot(h, cfg.Lease, cfg.CohortBudget, sh.noteEnd)
			hosted = append(hosted, sh.slots[n])
			if sh.route == mutex.Nil {
				sh.route = mutex.ID(n + 1)
			}
		}
		if sh.route == mutex.Nil {
			s.Close()
			return nil, fmt.Errorf("lockservice: shard %d: transport hosts no members", i)
		}
		if sh.slots[home-1] != nil {
			sh.route = home
		}
		if cfg.Telemetry != nil {
			// Before the sweeper starts: it reads the histogram fields.
			sh.register(cfg.Telemetry)
		}
		sh.sweeper = runtime.StartSweeper(cfg.Clock, cfg.SweepInterval, hosted...)
		if every := cfg.Topology.RebalanceEvery; every > 0 {
			sh.stopRebal = vclock.Every(cfg.Clock, every, sh.rebalTick)
		}
		s.shards = append(s.shards, sh)
	}
	if r, ok := cfg.Transport.(interface{ Register(*telemetry.Registry) }); ok && cfg.Telemetry != nil {
		r.Register(cfg.Telemetry) // the substrate's own counters (TCPTransport's member host)
	}
	if cfg.DebugAddr != "" {
		srv, err := telemetry.Serve(cfg.DebugAddr, cfg.Telemetry)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("lockservice: debug endpoints: %w", err)
		}
		s.debug = srv
	}
	return s, nil
}

// KeyShard returns the shard index resource maps to among shards shards:
// transport.ShardOf, FNV-1a mod shards, a stable assignment across runs
// and processes that dialed clients and gateways compute the same way.
func KeyShard(resource string, shards int) int { return transport.ShardOf(resource, shards) }

// ShardFor returns the shard index resource maps to in this service.
func (s *Service) ShardFor(resource string) int {
	return KeyShard(resource, len(s.shards))
}

// Shards returns the configured shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Nodes returns the number of member nodes per shard.
func (s *Service) Nodes() int { return s.cfg.Nodes }

// Acquire locks resource on behalf of the shard's routing member — its
// home node when hosted here, otherwise this process's own member —
// blocking until the shard token arrives or ctx is done. The returned
// Hold carries the fencing token to pass downstream and the lease
// deadline. It is the plain-Service convenience entry point; explicit
// members use On(id).Acquire.
func (s *Service) Acquire(ctx context.Context, resource string) (Hold, error) {
	sh, err := s.shardOf(resource)
	if err != nil {
		return Hold{}, err
	}
	return sh.acquire(ctx, sh.route, resource)
}

// Release unlocks resource previously locked with Acquire, by name: it
// releases whatever hold the routing member currently has on resource.
// It returns ErrNotHeld if the member does not hold resource, and
// ErrLeaseExpired if it did but the lease ran out and the sweeper
// already reclaimed it. Lease-aware callers should prefer ReleaseHold,
// which identifies the exact hold by its fencing token.
func (s *Service) Release(resource string) error {
	sh, err := s.shardOf(resource)
	if err != nil {
		return err
	}
	return sh.release(sh.route, resource, 0)
}

// ReleaseHold unlocks the exact hold h, matched by resource, member
// node and fencing token. A hold whose lease ran out is reported with
// ErrLeaseExpired even if the member has since re-held the same
// resource under a newer fence; a hold that is not current (already
// released, or superseded) is ErrNotHeld.
func (s *Service) ReleaseHold(h Hold) error {
	sh, err := s.shardOf(h.Resource)
	if err != nil {
		return err
	}
	id := h.Node
	if id == mutex.Nil {
		id = sh.route
	}
	return sh.release(id, h.Resource, h.Fence)
}

// Client is the lock-service view of one member node.
type Client struct {
	svc *Service
	id  mutex.ID
}

// On returns the client for member node id (1..Nodes).
func (s *Service) On(id mutex.ID) (*Client, error) {
	if id <= mutex.Nil || int(id) > s.cfg.Nodes {
		return nil, fmt.Errorf("lockservice: no member node %d (have 1..%d)", id, s.cfg.Nodes)
	}
	return &Client{svc: s, id: id}, nil
}

// ID returns the member node this client acts as.
func (c *Client) ID() mutex.ID { return c.id }

// Acquire locks resource on behalf of this member node, returning the
// hold's fencing token and lease deadline.
func (c *Client) Acquire(ctx context.Context, resource string) (Hold, error) {
	sh, err := c.svc.shardOf(resource)
	if err != nil {
		return Hold{}, err
	}
	return sh.acquire(ctx, c.id, resource)
}

// TryAcquire locks resource only if this member's slot on the
// resource's shard is free and the shard token can be taken without any
// network traffic (the member is sitting on an idle token). It reports
// false (with no error) when the resource would have to be waited for.
func (c *Client) TryAcquire(resource string) (Hold, bool, error) {
	sh, err := c.svc.shardOf(resource)
	if err != nil {
		return Hold{}, false, err
	}
	return sh.tryAcquire(c.id, resource)
}

// Release unlocks resource previously locked by this member node, by
// name. It returns ErrNotHeld if this member does not hold resource, and
// ErrLeaseExpired if it did but the sweeper already reclaimed the hold.
// Lease-aware callers should prefer ReleaseHold.
func (c *Client) Release(resource string) error {
	sh, err := c.svc.shardOf(resource)
	if err != nil {
		return err
	}
	return sh.release(c.id, resource, 0)
}

// ReleaseHold unlocks the exact hold h through this member node; see
// Service.ReleaseHold for the error contract.
func (c *Client) ReleaseHold(h Hold) error {
	sh, err := c.svc.shardOf(h.Resource)
	if err != nil {
		return err
	}
	id := h.Node
	if id == mutex.Nil {
		id = c.id
	}
	return sh.release(id, h.Resource, h.Fence)
}

func (s *Service) shardOf(resource string) (*shard, error) {
	if resource == "" {
		return nil, errors.New("lockservice: empty resource name")
	}
	return s.shards[s.ShardFor(resource)], nil
}

// slot returns member id's slot on this shard.
func (sh *shard) slot(id mutex.ID) (*runtime.Slot, error) {
	if sl := sh.slots[id-1]; sl != nil {
		return sl, nil
	}
	return nil, fmt.Errorf("lockservice: member %d is not hosted by this process (shard %d)", id, sh.index)
}

// acquire takes member id's slot on the shard — queueing, the shard
// token, the lease: see runtime.Slot — and counts the grant.
func (sh *shard) acquire(ctx context.Context, id mutex.ID, resource string) (Hold, error) {
	h, _, err := sh.acquireRun(ctx, id, resource, false)
	return h, err
}

// acquireRun is acquire for a dialed connection: with run set (more of
// its callers are queued for resource) the slot reserves a run, the Hold
// carries its first fence and the count says how many consecutive fences
// it covers. Only that first fence is counted here: the rest are counted
// when the run's release reports how many were handed out (noteEnd).
func (sh *shard) acquireRun(ctx context.Context, id mutex.ID, resource string, run bool) (Hold, int, error) {
	sl, err := sh.slot(id)
	if err != nil {
		return Hold{}, 0, err
	}
	start := sh.clk.Now() // wait includes local slot queueing, not just token travel
	g, n := runtime.Grant{}, 1
	if run {
		g, n, err = sl.AcquireRun(ctx, resource)
	} else {
		g, err = sl.Acquire(ctx, resource)
	}
	if err != nil {
		return Hold{}, 0, fmt.Errorf("lockservice: acquire %q (shard %d): %w", resource, sh.index, err)
	}
	sh.noteGrant(id, g.Hops, g.Generation+uint64(n-1), sh.clk.Since(start))
	return Hold{Resource: resource, Shard: sh.index, Node: id, Fence: g.Generation, Expires: g.Expires}, n, nil
}

// tryAcquire is acquire's no-wait variant: the slot and the shard token
// are taken only if both are immediately available.
func (sh *shard) tryAcquire(id mutex.ID, resource string) (Hold, bool, error) {
	sl, err := sh.slot(id)
	if err != nil {
		return Hold{}, false, err
	}
	g, ok, err := sl.TryAcquire(resource)
	if err != nil {
		return Hold{}, false, fmt.Errorf("lockservice: try-acquire %q (shard %d): %w", resource, sh.index, err)
	}
	if !ok {
		return Hold{}, false, nil
	}
	sh.noteGrant(id, g.Hops, g.Generation, 0)
	return Hold{Resource: resource, Shard: sh.index, Node: id, Fence: g.Generation, Expires: g.Expires}, true, nil
}

// release ends member id's hold of resource: the exact hold under fence
// (Hold.Fence), or with fence 0 whatever hold of that name is current.
// The slot reports the outcome to noteEnd before it frees itself.
func (sh *shard) release(id mutex.ID, resource string, fence uint64) error {
	return sh.releaseRun(id, resource, fence, 1, false)
}

// releaseRun is release with a run's end-of-run report: fence is the
// run's last, used and more as in runtime.Slot.ReleaseRun.
func (sh *shard) releaseRun(id mutex.ID, resource string, fence uint64, used int, more bool) error {
	sl, err := sh.slot(id)
	if err != nil {
		return err
	}
	if err := sl.ReleaseRun(resource, fence, used, more); err != nil {
		return fmt.Errorf("lockservice: release %q (shard %d): %w", resource, sh.index, err)
	}
	return nil
}

// noteEnd is every hosted slot's end-of-hold callback: the counters (a
// cohort regrant is both a release and a regrant; an expiry is neither),
// the hold-duration histogram, and the service-level lifecycle trace
// event. It runs before the slot is freed, so a hold's end is counted
// before the slot's next grant is. A run that handed out more than one
// fence adds the earlier ones here, in the same lock hold as its release
// (or, for a run that expired, when the late release tells of them):
// each was a grant, a release and a zero-message handoff, all made
// inside the dialed connection.
func (sh *shard) noteEnd(e runtime.HoldEnd) {
	kind := telemetry.TraceRelease
	local := int64(e.Run - 1)
	sh.mu.Lock()
	sh.grants += local
	sh.nodeGrants[e.Node-1] += local
	sh.releases += local
	sh.regrants += local
	switch {
	case e.Late:
	case e.Expired:
		sh.expired++
		kind = telemetry.TraceExpire
	case e.Regranted:
		sh.regrants++
		sh.releases++
		kind = telemetry.TraceRegrant
	default:
		sh.releases++
	}
	sh.mu.Unlock()
	if sh.holdHist != nil && !e.Since.IsZero() {
		sh.holdHist.ObserveDuration(sh.clk.Since(e.Since))
	}
	if sh.obs != nil {
		for f := e.Fence - uint64(local); f < e.Fence; f++ {
			sh.obs(telemetry.TraceEvent{Kind: telemetry.TraceRegrant, Node: e.Node, Fence: f, Detail: e.Key})
		}
		if !e.Late {
			sh.obs(telemetry.TraceEvent{Kind: kind, Node: e.Node, Fence: e.Fence, Detail: e.Key})
		}
	}
}

// stopLoops withdraws the shard's tick chains at Close. A rebalance tick
// already running sees the closed done channel and does nothing.
func (sh *shard) stopLoops() {
	sh.sweeper.Stop()
	if sh.stopRebal != nil {
		sh.stopRebal()
	}
}

// noteGrant records one grant against member id under a single lock
// hold: the shard total, the per-member heat signal the rebalancer
// reads, the hop count of the request path the grant traveled, the
// fencing high-water mark, and the wait-reservoir sample. One critical
// section per grant replaces the previous mutex-plus-four-atomics
// combination and is what makes Stats snapshots consistent.
func (sh *shard) noteGrant(id mutex.ID, hops int, fence uint64, wait time.Duration) {
	ms := float64(wait) / float64(time.Millisecond)
	sh.mu.Lock()
	sh.grants++
	sh.nodeGrants[id-1]++
	sh.hops += int64(hops)
	if fence > sh.fence {
		sh.fence = fence
	}
	sh.waitsSeen++
	if len(sh.waits) < maxWaitSamples {
		sh.waits = append(sh.waits, ms)
	} else if i := rand.Intn(sh.waitsSeen); i < maxWaitSamples {
		sh.waits[i] = ms
	}
	sh.mu.Unlock()
	if sh.waitHist != nil {
		sh.waitHist.ObserveDuration(wait)
	}
}

// observe is the shard's subscription to its members' events: it counts
// recovery events and hands the stream on to the trace observer, if any.
// Per event it copies a struct and forwards — no allocation.
func (sh *shard) observe(e core.Event) {
	if core.RecoveryEvents.Has(e.Kind) {
		sh.mu.Lock()
		sh.recoveries++
		sh.mu.Unlock()
	}
	if sh.obs != nil {
		sh.obs(e.Trace())
	}
}

// builder returns the node builder for one shard, with its topology and
// observation options: a trace observer subscribes the shard to every
// traced event, telemetry alone to the recovery events it counts.
func (sh *shard) builder(compress, counted bool) mutex.Builder {
	var opts []core.Option
	if compress {
		opts = append(opts, core.WithPathCompression())
	}
	switch {
	case sh.obs != nil:
		opts = append(opts, core.WithObserver(core.TracedEvents, sh.observe))
	case counted:
		opts = append(opts, core.WithObserver(core.RecoveryEvents, sh.observe))
	}
	return func(id mutex.ID, env mutex.Env, mcfg mutex.Config) (mutex.Node, error) {
		return core.New(id, env, mcfg, opts...)
	}
}

// rebalTick is one tick of the shard's adaptive-topology loop: one
// rebalance pass (see rebalanceOnce), none once the service is closing.
func (sh *shard) rebalTick() {
	select {
	case <-sh.done:
		return
	default:
	}
	sh.rebalanceOnce()
}

// rebalanceOnce re-roots the shard toward its hottest member — the one
// with the most grants since the previous pass, as observed by this
// process. Only the member currently possessing the token can reshape
// (PlanReorient refuses everywhere else, and mid-recovery, without
// error), so the pass offers the plan to every hosted slot and stops at
// the first taker. Reports whether a reshape was planned.
func (sh *shard) rebalanceOnce() bool {
	sh.mu.Lock()
	hot, best := mutex.Nil, int64(0)
	for i, n := range sh.nodeGrants {
		if d := n - sh.lastGrants[i]; d > best {
			hot, best = mutex.ID(i+1), d
		}
		sh.lastGrants[i] = n
	}
	sh.mu.Unlock()
	if hot == mutex.Nil {
		return false // idle interval: nothing to adapt to
	}
	for _, sl := range sh.slots {
		if sl == nil {
			continue
		}
		planned, err := sl.Session().PlanReorient(hot)
		if err != nil {
			continue // e.g. the hot member died since we counted it
		}
		if planned {
			sh.mu.Lock()
			sh.reorients++
			sh.mu.Unlock()
			return true
		}
	}
	return false
}

// rebalanceNow runs one synchronous rebalance pass over every shard,
// regardless of the configured cadence, and returns how many shards
// planned a reshape. Tests use it to adapt at deterministic points;
// deployments rely on Topology.RebalanceEvery.
func (s *Service) rebalanceNow() int {
	planned := 0
	for _, sh := range s.shards {
		if sh.rebalanceOnce() {
			planned++
		}
	}
	return planned
}

// ShardStats is one shard's counters.
type ShardStats struct {
	Shard int
	// Home is the shard's initial token holder and service-level routing
	// target.
	Home mutex.ID
	// Grants counts successful Acquires: every fence handed to a caller.
	// A dialed connection granted a run (a block of fences it rotates
	// among its own callers) counts once when the run is granted, and
	// the fences it handed out after the first when the run's release
	// reports them — so Grants is what callers got, not what was
	// reserved, and not one per run. Those locally rotated grants add to
	// the three counts only, in one cut with the run's release; the
	// member never saw their wait, so Wait and the wait histogram do not
	// include them.
	Grants int64
	// Releases counts successful Releases (cohort regrants included, and
	// a run's local handoffs, each of which released one caller's hold).
	// At quiescence Grants == Releases + Expired: every grant is either
	// released by its holder or reclaimed by the sweeper.
	Releases int64
	// Regrants counts releases served by a cohort handoff — the section
	// passed to a queued local waiter with no token movement at all,
	// whether by the member or, inside a run, by the dialed connection.
	Regrants int64
	// Expired counts holds the sweeper force-released after their lease
	// deadline passed.
	Expired int64
	// Recoveries counts failure-recovery events observed on this shard's
	// locally hosted members. Populated only when the service runs with
	// telemetry or a trace observer (Config.Telemetry/TraceObserver);
	// zero otherwise.
	Recoveries int64
	// Fence is the highest fencing token granted through this process on
	// this shard.
	Fence uint64
	// Messages counts protocol messages the shard cluster exchanged.
	Messages int64
	// Hops counts the request-path hops behind all grants: how many nodes
	// each granted request traveled through. Hops/Grants is the mean path
	// length — the signal adaptive topology policies drive down.
	Hops int64
	// Reorients counts planned topology reshapes this process initiated
	// on the shard (always 0 under the static policy).
	Reorients int64
	// Wait summarizes acquire latency in milliseconds, over a bounded
	// uniform reservoir of at most maxWaitSamples recent-and-past grants.
	Wait metrics.Summary
}

// Stats aggregates the per-shard counters.
type Stats struct {
	PerShard []ShardStats
	// Grants, Releases, Regrants, Expired, Recoveries, Messages, Hops
	// and Reorients are the service-wide totals.
	Grants     int64
	Releases   int64
	Regrants   int64
	Expired    int64
	Recoveries int64
	Messages   int64
	Hops       int64
	Reorients  int64
	// Wait summarizes acquire latency in milliseconds across all shards.
	Wait metrics.Summary
}

// Stats snapshots the service counters. Each shard's counters are read
// under the same lock that guards their updates, so every per-shard row
// is internally consistent — Releases can never transiently exceed
// Grants, and at quiescence Grants == Releases + Expired holds exactly.
// (Messages is the transport's own counter, read alongside.)
func (s *Service) Stats() Stats {
	var st Stats
	samples := make([][]float64, 0, len(s.shards))
	seen := make([]int, 0, len(s.shards))
	totalSeen := 0
	for _, sh := range s.shards {
		ss, waits, n := sh.snapshot()
		st.PerShard = append(st.PerShard, ss)
		st.Grants += ss.Grants
		st.Releases += ss.Releases
		st.Regrants += ss.Regrants
		st.Expired += ss.Expired
		st.Recoveries += ss.Recoveries
		st.Messages += ss.Messages
		st.Hops += ss.Hops
		st.Reorients += ss.Reorients
		samples = append(samples, waits)
		seen = append(seen, n)
		totalSeen += n
	}
	st.Wait = metrics.Summarize(mergeWeighted(samples, seen, totalSeen))
	return st
}

// snapshot takes one consistent cut of the shard's counters and wait
// reservoir under a single lock hold.
func (sh *shard) snapshot() (ShardStats, []float64, int) {
	sh.mu.Lock()
	waits := make([]float64, len(sh.waits))
	copy(waits, sh.waits)
	n := sh.waitsSeen
	ss := ShardStats{
		Shard:      sh.index,
		Home:       sh.home,
		Grants:     sh.grants,
		Releases:   sh.releases,
		Regrants:   sh.regrants,
		Expired:    sh.expired,
		Recoveries: sh.recoveries,
		Fence:      sh.fence,
		Hops:       sh.hops,
		Reorients:  sh.reorients,
	}
	sh.mu.Unlock()
	ss.Messages = sh.cluster.Messages()
	ss.Wait = metrics.Summarize(waits)
	return ss, waits, n
}

// mergeWeighted combines per-shard wait reservoirs into one sample for
// the service-wide summary. While no reservoir has capped the samples are
// complete and plain concatenation is exact; once capped, each shard
// contributes in proportion to the grants it actually saw, so a cold
// shard's full reservoir cannot outweigh a hot shard's truncated one.
func mergeWeighted(samples [][]float64, seen []int, totalSeen int) []float64 {
	if totalSeen <= maxWaitSamples {
		var all []float64
		for _, xs := range samples {
			all = append(all, xs...)
		}
		return all
	}
	var all []float64
	for i, xs := range samples {
		k := int(float64(maxWaitSamples) * float64(seen[i]) / float64(totalSeen))
		if k >= len(xs) {
			all = append(all, xs...)
			continue
		}
		// Partial Fisher–Yates: k distinct uniform picks from xs.
		idx := rand.Perm(len(xs))[:k]
		for _, j := range idx {
			all = append(all, xs[j])
		}
	}
	return all
}

// Messages returns the total protocol messages across all shards, as
// observed by this process (cluster-wide over LocalTransport, this
// member's sends over a distributed transport).
func (s *Service) Messages() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.cluster.Messages()
	}
	return n
}

// Err returns the first protocol error observed on any shard, if any.
// The shard label is attached only when the error is attributable to one
// shard: over a shared substrate (one TCP host for every shard) the same
// host-level error surfaces from every cluster, and pinning it to shard
// 0 would send debugging to the wrong place.
func (s *Service) Err() error {
	var first error
	firstIdx, shared := -1, false
	for _, sh := range s.shards {
		err := sh.cluster.Err()
		if err == nil {
			continue
		}
		if first == nil {
			first, firstIdx = err, sh.index
		} else if errors.Is(err, first) {
			shared = true
		}
	}
	if first == nil {
		return nil
	}
	if shared {
		return fmt.Errorf("lockservice: %w", first)
	}
	return fmt.Errorf("lockservice: shard %d: %w", firstIdx, first)
}

// Close stops every shard cluster and the transport, waiting for their
// goroutines.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		if s.done != nil {
			close(s.done)
		}
		if s.debug != nil {
			s.debug.Close()
		}
		for _, sh := range s.shards {
			if sh != nil {
				sh.stopLoops()
				sh.cluster.Close()
			}
		}
		if s.cfg.Transport != nil {
			s.cfg.Transport.Close()
		}
	})
}

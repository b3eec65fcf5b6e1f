package dagmutex

import (
	"context"

	"dagmutex/internal/failure"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// Clock is the time source a cluster or lock service runs on: grant
// timestamps, lease deadlines, sweeper cadence and heartbeat ticks all
// go through it. The default is the system
// clock; NewVirtualClock returns a deterministic one for tests and
// simulation. Attach with WithClock.
type Clock = vclock.Clock

// VirtualClock is a deterministic, manually advanced Clock: time stands
// still until Advance (or Step) fires the timers due, in order, on the
// advancing goroutine. A cluster opened with WithClock(v) does all of
// its timing — lease expiry, sweeps, failure detection —
// exactly when the test advances v, turning timing-dependent tests and
// simulated-hours scenarios into deterministic, wall-clock-fast code.
type VirtualClock = vclock.Virtual

// NewVirtualClock returns a virtual clock at its epoch. Advance it with
// VirtualClock.Advance; nothing fires until then.
func NewVirtualClock() *VirtualClock { return vclock.NewVirtual() }

// Telemetry is an allocation-free metrics registry: atomic counters,
// pull-based gauges and fixed-bucket histograms with p50/p95/p99
// snapshots, rendered in the Prometheus text format by WritePrometheus.
// Construct one with NewTelemetry, attach it with WithTelemetry, and
// serve it over HTTP with ServeTelemetry (or let WithDebugAddr do both).
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// TelemetryServer is a live debug endpoint listener: Prometheus text
// metrics on /metrics and the pprof profiles on /debug/pprof/. Start
// one with ServeTelemetry; Close it to stop serving.
type TelemetryServer = telemetry.Server

// ServeTelemetry serves reg's metrics and the process's pprof profiles
// on addr ("" for a fresh loopback port; the bound address is Addr on
// the returned server). The caller owns the server's lifetime — or use
// WithDebugAddr to tie it to a Cluster, LockService or Gateway.
func ServeTelemetry(addr string, reg *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg)
}

// TraceEvent is one structured observation of the protocol in motion —
// a request issued, forwarded, the privilege dispatched, the grant, the
// release, a lease expiry, a recovery step — carrying the node, the
// requesting origin, the fencing generation and the hop count. Origin
// and fence together form the grant's causal trace ID (TraceID), so the
// full request→hops→privilege→grant chain of one critical-section entry
// can be stitched back together from the stream without any extra wire
// fields. Subscribe with WithTraceObserver.
type TraceEvent = telemetry.TraceEvent

// TraceKind labels a TraceEvent.
type TraceKind = telemetry.TraceKind

// TraceEvent kinds, in rough causal order of one grant's life.
const (
	TraceRequest   = telemetry.TraceRequest
	TraceForward   = telemetry.TraceForward
	TracePrivilege = telemetry.TracePrivilege
	TraceGrant     = telemetry.TraceGrant
	TraceRelease   = telemetry.TraceRelease
	TraceRegrant   = telemetry.TraceRegrant
	TraceExpire    = telemetry.TraceExpire
	TraceRecovery  = telemetry.TraceRecovery
)

// TransportSpec selects the messaging substrate Open runs a cluster on.
// Use the Local value or the TCP constructor.
type TransportSpec struct {
	tcp    bool
	listen string
}

// Local is the in-process substrate: every member runs in this process,
// connected by mailboxes — the default, and the right choice for
// single-binary embedding, tests and benchmarks.
var Local = TransportSpec{}

// TCP is the socket substrate: members talk over framed TCP connections
// with batched writes, and every member's listener also accepts dialed
// non-member clients (see Dial). For Open (whole cluster in this
// process) listen is ignored and every member binds a fresh loopback
// port; for OpenPeer and OpenLockService it is this member's listen
// address ("" means a fresh loopback port).
func TCP(listen string) TransportSpec { return TransportSpec{tcp: true, listen: listen} }

// Option configures Open, OpenPeer and OpenLockService. The zero
// configuration — no options — is a fail-free in-process cluster, the
// paper's model.
type Option func(*openOptions)

type openOptions struct {
	transport TransportSpec
	fcfg      *failure.Config
	inj       *failure.Injector
	init      bool
	member    ID
	startCtx  context.Context
	queue     *transport.ClientQueue
	policy    TopologyPolicy
	telemetry *Telemetry
	trace     func(TraceEvent)
	debugAddr *string
	clock     Clock
}

// WithTransport selects the substrate: Local (default) or TCP(listen).
func WithTransport(t TransportSpec) Option {
	return func(o *openOptions) { o.transport = t }
}

// WithClock runs the opened cluster or lock service on c: grant
// timestamps, lease deadlines and the sweeper, heartbeat failure
// detection and proxy expiry all read time from it.
// Pass a NewVirtualClock to make every timer deterministic — nothing
// expires or ticks until the test advances the clock. Applies to Open
// and OpenLockService on the Local substrate only; the TCP substrate's
// sockets live on real time, so combining WithClock with
// WithTransport(TCP(...)) is an error. For pure protocol simulation at
// scale (thousands of nodes, seeded fault schedules), see
// internal/simharness and `dagsim -virtual`.
func WithClock(c Clock) Option {
	return func(o *openOptions) { o.clock = c }
}

// WithFailureDetection arms the failure subsystem: every member runs a
// heartbeat failure detector tuned by cfg, a crashed member is excised
// by the surviving majority (regenerating the token if it died with the
// victim), and Cluster.Kill becomes meaningful. See the "Failure model"
// section of the package documentation.
func WithFailureDetection(cfg FailureConfig) Option {
	return func(o *openOptions) { o.fcfg = &cfg }
}

// WithInjector installs a shared fault plan consulted on every send (and
// receive, over TCP), so tests and chaos batteries can sever links,
// partition and heal deterministically. Without it, Kill lazily installs
// a private plan.
func WithInjector(inj *FaultInjector) Option {
	return func(o *openOptions) { o.inj = inj }
}

// WithINIT makes the cluster derive its edge orientation at runtime by
// executing the thesis's Figure 5 INIT flood, instead of being
// configured statically. Open blocks until every node has initialized
// (at most the tree's depth in message hops), bounded by the startup
// context (see WithStartupContext).
func WithINIT() Option {
	return func(o *openOptions) { o.init = true }
}

// WithMember names the member id this process runs as, for
// OpenLockService over TCP (each participating process opens the same
// configuration with its own member id). Open and OpenPeer ignore it.
func WithMember(id ID) Option {
	return func(o *openOptions) { o.member = id }
}

// WithClientQueue bounds what each member's listener accepts from
// dialed non-member clients: depth caps the requests queued per
// connection (0 means the default, 64), and rate/burst arm a
// listener-wide token bucket on admitted requests (rate 0 disables it;
// burst 0 derives a one-second burst from the rate). A request over
// either bound is shed immediately with ErrClientBusy instead of
// queueing — the backpressure that keeps thousands of dialed clients
// from melting a member. Applies to Open and OpenPeer over TCP, to
// OpenLockService TCP members, and to OpenGateway.
func WithClientQueue(depth int, rate float64, burst int) Option {
	return func(o *openOptions) {
		o.queue = &transport.ClientQueue{Depth: depth, Rate: rate, Burst: burst}
	}
}

// WithStartupContext bounds Open's startup work — today, the INIT
// flood's completion wait. Without it startup is bounded by a default
// 10 s deadline.
func WithStartupContext(ctx context.Context) Option {
	return func(o *openOptions) { o.startCtx = ctx }
}

// WithTelemetry registers the opened thing's live metrics on reg. A
// LockService exports per-shard grant/release/regrant/expiry/recovery
// counters, msgs-per-grant and hops-per-grant gauges, and acquire-wait
// plus hold-duration quantiles; a Cluster exports its message counter;
// a Gateway exports the client-tier admission counters. Gauges are
// pull-based (read only when the registry is scraped) and the
// histograms are wait-free atomics, so telemetry adds no locks and no
// allocations to the grant hot path. Read it back with
// Cluster.Metrics or LockService.Telemetry, render it with
// Telemetry.WritePrometheus, or serve it with ServeTelemetry or
// WithDebugAddr.
func WithTelemetry(reg *Telemetry) Option {
	return func(o *openOptions) { o.telemetry = reg }
}

// WithTraceObserver subscribes fn to the structured trace stream: every
// request, forward, privilege dispatch, grant, release, lease expiry
// and recovery step (TraceRecovery, the step's name in Detail) of every
// member hosted in this process, each carrying the causal trace ID
// (origin and fence) that stitches one critical-section entry's chain
// together. It is the library's one observer. fn runs inside protocol
// handlers and service goroutines, possibly concurrently: it must not
// block, must not call back into the cluster, and should not allocate.
// Applies to Open, OpenPeer and OpenLockService.
func WithTraceObserver(fn func(TraceEvent)) Option {
	return func(o *openOptions) { o.trace = fn }
}

// WithDebugAddr serves the debug endpoints on addr for the opened
// thing's lifetime: Prometheus text metrics on /metrics (the
// WithTelemetry registry, or a fresh one when none was attached) and
// the pprof profiles on /debug/pprof/. Use "127.0.0.1:0" for a fresh
// loopback port; read the bound address back with Cluster.DebugAddr,
// LockService.DebugAddr or Gateway.DebugAddr. Applies to Open,
// OpenLockService and OpenGateway.
func WithDebugAddr(addr string) Option {
	return func(o *openOptions) { o.debugAddr = &addr }
}

// TopologyPolicy selects how a cluster's DAG adapts to the request
// stream at runtime: Static (the zero value) or PathCompress. Every
// member of a cluster (and every participating process of a distributed
// deployment) must use the same policy.
type TopologyPolicy struct {
	compress bool
}

// Static is the non-adaptive policy, and the default: the DAG's shape
// changes only by the paper's own edge reversal, one edge per request
// hop, so the initial tree's geometry keeps governing message cost.
var Static = TopologyPolicy{}

// PathCompress returns the path-compressing policy: every node a
// request passes through re-points its NEXT edge directly at the
// requester (the Naimi–Trehel reversal) instead of at the neighbor the
// request arrived from. Compression is purely local — no extra messages
// and no coordination — and costs ≈ H(N−1) messages per grant under
// uniform demand over N members, whatever the initial tree (Lavault's
// average case of path reversal). That wins on chain, radial and k-ary
// trees, and loses to the static star, which stays below 3: at 32
// members, 4.01 against 2.85 (internal/lockservice's
// TestTopologyCellCosts).
func PathCompress() TopologyPolicy { return TopologyPolicy{compress: true} }

// WithTopologyPolicy selects the adaptive-topology policy for Open,
// OpenPeer and OpenLockService. Default Static.
func WithTopologyPolicy(p TopologyPolicy) Option {
	return func(o *openOptions) { o.policy = p }
}

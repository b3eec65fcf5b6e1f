package dagmutex

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/transport"
)

// defaultStartupTimeout bounds Open's startup work (the INIT flood) when
// no WithStartupContext is supplied.
const defaultStartupTimeout = 10 * time.Second

// Cluster is a live cluster: one DAG protocol node per tree vertex,
// over the in-process substrate (goroutines and mailboxes preserving
// the paper's reliable per-pair FIFO network model) or over loopback
// TCP, depending on WithTransport. Construct one with Open; Close it to
// stop its goroutines.
type Cluster struct {
	backend clusterBackend
	tree    *Tree
	reg     *Telemetry       // WithTelemetry (or the one WithDebugAddr installed)
	debug   *TelemetryServer // WithDebugAddr
}

// clusterBackend is the substrate-side surface a Cluster drives;
// transport.Local and transport.TCPCluster both satisfy it.
type clusterBackend interface {
	Session(id mutex.ID) *transport.Session
	Messages() int64
	Err() error
	Close()
	Kill(id mutex.ID) error
	Injector() *failure.Injector
	WithNode(id mutex.ID, fn func(mutex.Node) error) error
}

// Open starts a live cluster on tree with the token at holder. With no
// options it is a fail-free in-process cluster (the paper's model);
// options select the substrate (WithTransport), arm the failure
// subsystem (WithFailureDetection, WithInjector), run the Figure 5 INIT
// flood instead of static orientation (WithINIT), and attach a trace
// observer (WithTraceObserver). Callers must Close the cluster.
func Open(tree *Tree, holder ID, opts ...Option) (*Cluster, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if holder == Nil || int(holder) > tree.N() {
		return nil, fmt.Errorf("dagmutex: holder %d not in tree of %d nodes", holder, tree.N())
	}

	cfg, err := TreeConfig(tree, holder)
	if err != nil {
		return nil, err
	}
	var initDone chan struct{}
	var builder mutex.Builder
	if o.init {
		// Runtime orientation: nodes get their neighbor lists and derive
		// NEXT from the INIT flood. Each node's EventInit makes the
		// completion wait event-driven instead of a sleep-poll.
		neighbors := make(map[ID][]ID, tree.N())
		for _, id := range tree.IDs() {
			neighbors[id] = tree.Neighbors(id)
		}
		cfg = Config{IDs: tree.IDs(), Holder: holder, Neighbors: neighbors}
		initDone = make(chan struct{})
		var remaining atomic.Int32
		remaining.Store(int32(tree.N()))
		done := initDone
		onInit := func() {
			if remaining.Add(-1) == 0 {
				close(done)
			}
		}
		builder = func(id mutex.ID, env mutex.Env, c mutex.Config) (mutex.Node, error) {
			return core.NewUninitialized(id, env, c, coreOptions(&o, onInit)...)
		}
	} else {
		builder = func(id mutex.ID, env mutex.Env, c mutex.Config) (mutex.Node, error) {
			return core.New(id, env, c, coreOptions(&o, nil)...)
		}
	}

	// One check of the ID list for the whole cluster: each member's
	// builder then only looks its own ID up.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var backend clusterBackend
	if o.transport.tcp {
		if o.clock != nil {
			return nil, fmt.Errorf("dagmutex: WithClock applies to the Local substrate; TCP sockets live on real time")
		}
		var tc *transport.TCPCluster
		tc, err = transport.NewTCPClusterWith(builder, cfg, transport.DAGCodec{}, o.fcfg, o.inj)
		if err == nil && o.queue != nil {
			tc.SetClientQueue(*o.queue)
		}
		backend = tc
	} else {
		var lopts []transport.LocalOption
		if o.inj != nil {
			lopts = append(lopts, transport.WithInjector(o.inj))
		}
		if o.fcfg != nil {
			lopts = append(lopts, transport.WithFailureDetection(*o.fcfg))
		}
		if o.clock != nil {
			lopts = append(lopts, transport.WithClock(o.clock))
		}
		backend, err = transport.NewLocal(builder, cfg, lopts...)
	}
	if err != nil {
		return nil, err
	}
	c := &Cluster{backend: backend, tree: tree, reg: o.telemetry}
	if o.debugAddr != nil && c.reg == nil {
		c.reg = NewTelemetry()
	}
	if c.reg != nil {
		c.reg.Gauge("dagmutex_messages_total", func() float64 {
			return float64(backend.Messages())
		})
	}
	if o.debugAddr != nil {
		srv, err := ServeTelemetry(*o.debugAddr, c.reg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dagmutex: debug endpoints: %w", err)
		}
		c.debug = srv
	}
	if o.init {
		if err := c.startInit(holder, initDone, o.startCtx); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// coreOptions collects the protocol-node options the open options imply:
// one subscription serves the trace observer and, when onInit is set, the
// INIT completion wait (only NewUninitialized's nodes report INIT).
func coreOptions(o *openOptions, onInit func()) []core.Option {
	var opts []core.Option
	if o.policy.compress {
		opts = append(opts, core.WithPathCompression())
	}
	if o.trace == nil && onInit == nil {
		return opts
	}
	want, trace := core.EventSet(1<<core.EventInit), o.trace
	if trace != nil {
		want |= core.TracedEvents
	}
	return append(opts, core.WithObserver(want, func(e core.Event) {
		if e.Kind == core.EventInit {
			onInit()
		} else {
			trace(e.Trace())
		}
	}))
}

// startInit launches the Figure 5 flood from holder and waits — event
// driven, bounded by the startup context — until every node reports
// initialized.
func (c *Cluster) startInit(holder ID, initDone <-chan struct{}, ctx context.Context) error {
	err := c.backend.WithNode(holder, func(n mutex.Node) error {
		return n.(*core.Node).StartInit()
	})
	if err != nil {
		return err
	}
	return c.awaitInitialized(ctx, initDone)
}

// awaitInitialized blocks until the INIT flood has reached every node,
// the cluster fails, or ctx is done. Unlike its polling predecessor it
// sleeps on the nodes' own completion signal. Every member's failure
// signal is watched: over TCP each member host has its own error sink
// (a send failure on a non-holder must fail Open immediately, not stall
// it to the deadline), while over Local the sinks are one and the same.
func (c *Cluster) awaitInitialized(ctx context.Context, initDone <-chan struct{}) error {
	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), defaultStartupTimeout)
		defer cancel()
	}
	failed := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	for _, id := range c.tree.IDs() {
		s := c.backend.Session(id)
		go func() {
			select {
			case <-s.Failed():
				select {
				case failed <- s.Err():
				default:
				}
			case <-stop:
			}
		}()
	}
	select {
	case <-initDone:
		return nil
	case err := <-failed:
		return fmt.Errorf("dagmutex: INIT flood failed: %w", err)
	case <-ctx.Done():
		return fmt.Errorf("dagmutex: INIT flood did not complete: %w", ctx.Err())
	}
}

// Session returns the blocking application API for member id — Acquire,
// TryAcquire, Release, fencing generations, membership events — or nil
// for an unknown id.
func (c *Cluster) Session(id ID) *Session { return c.backend.Session(id) }

// Tree returns the cluster's logical topology.
func (c *Cluster) Tree() *Tree { return c.tree }

// Messages returns the number of protocol messages exchanged so far.
func (c *Cluster) Messages() int64 { return c.backend.Messages() }

// Err returns the first protocol error observed, if any. A nil result
// after a workload is evidence the run respected the protocol contract.
func (c *Cluster) Err() error { return c.backend.Err() }

// Close stops the cluster's goroutines and waits for them to exit.
func (c *Cluster) Close() {
	if c.debug != nil {
		c.debug.Close()
	}
	c.backend.Close()
}

// Metrics returns the telemetry registry the cluster was opened with
// (WithTelemetry, or the one WithDebugAddr installed), or nil when the
// cluster runs uninstrumented.
func (c *Cluster) Metrics() *Telemetry { return c.reg }

// DebugAddr returns the bound address of the debug endpoints
// (WithDebugAddr), or "" when they are not being served.
func (c *Cluster) DebugAddr() string {
	if c.debug == nil {
		return ""
	}
	return c.debug.Addr()
}

// Kill crashes member id: it falls silent mid-whatever-it-was-doing, its
// own Session fails fast with ErrNodeDown, and — when the cluster was
// opened WithFailureDetection — the survivors detect and recover.
func (c *Cluster) Kill(id ID) error { return c.backend.Kill(id) }

// Injector returns the cluster's fault plan, for severing links and
// partitioning deterministically.
func (c *Cluster) Injector() *FaultInjector { return c.backend.Injector() }

// Addr returns member id's listen address — what non-member clients
// Dial — when the cluster runs over TCP, and "" over the in-process
// substrate (front it with a gateway instead; see Dial).
func (c *Cluster) Addr(id ID) string {
	if t, ok := c.backend.(*transport.TCPCluster); ok {
		return t.Addr(id)
	}
	return ""
}

// Peer is one DAG member hosted behind a real TCP listener — the
// per-process unit of a deployed cluster. A set of Peers (one per
// process or machine, same tree, same holder) forms a cluster once
// every listener's address is exchanged out of band and Connect is
// called with the full book. Every Peer's listener also serves dialed
// non-member clients (Dial), proxied through the member's session.
type Peer = transport.TCPNode

// OpenPeer starts member id of the tree as this process's DAG vertex,
// listening per WithTransport(TCP(listen)) (default: a fresh loopback
// port). Exchange Addr values out of band, then call Connect on every
// peer with the full address book before the first Acquire.
// WithFailureDetection and WithInjector arm this member's host;
// WithINIT is not supported for per-process peers (the flood's
// completion cannot be observed from one process).
func OpenPeer(tree *Tree, holder ID, id ID, opts ...Option) (*Peer, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.init {
		return nil, fmt.Errorf("dagmutex: WithINIT requires Open (a whole-cluster view); peers must be configured statically")
	}
	if o.clock != nil {
		return nil, fmt.Errorf("dagmutex: WithClock applies to the Local substrate; TCP sockets live on real time")
	}
	cfg, err := TreeConfig(tree, holder)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	builder := func(nid mutex.ID, env mutex.Env, c mutex.Config) (mutex.Node, error) {
		return core.New(nid, env, c, coreOptions(&o, nil)...)
	}
	p, err := transport.NewTCPNodeOn(id, o.transport.listen, builder, cfg, transport.DAGCodec{})
	if err != nil {
		return nil, err
	}
	if o.inj != nil {
		p.Host().SetInjector(o.inj)
	}
	if o.fcfg != nil {
		p.Host().EnableFailureDetection(*o.fcfg, tree.IDs())
	}
	if o.queue != nil {
		p.Host().SetClientQueue(*o.queue)
	}
	return p, nil
}

// OpenLockService starts a sharded multi-resource lock service. With no
// options every member of every shard runs in this process (the
// substrate tests and single-binary deployments use). With
// WithTransport(TCP(listen)) and WithMember(id), this process runs
// member id of every shard behind one listener: every participating
// process opens the same configuration with its own member id,
// exchanges Addr values out of band, and Connects the full book before
// locking. TCP members automatically serve dialed non-member clients
// (DialLockService) through their own slots. Callers must Close the
// service.
func OpenLockService(cfg LockServiceConfig, opts ...Option) (*LockService, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.init {
		return nil, fmt.Errorf("dagmutex: WithINIT applies to Open, not OpenLockService")
	}
	if o.policy.compress || o.policy.every > 0 {
		cfg.Topology = lockservice.Topology{PathCompression: o.policy.compress, RebalanceEvery: o.policy.every}
	}
	if o.telemetry != nil {
		cfg.Telemetry = o.telemetry
	}
	if o.trace != nil {
		cfg.TraceObserver = o.trace
	}
	if o.debugAddr != nil {
		cfg.DebugAddr = *o.debugAddr
		if cfg.DebugAddr == "" {
			cfg.DebugAddr = "127.0.0.1:0"
		}
	}
	if !o.transport.tcp {
		if o.member != Nil {
			return nil, fmt.Errorf("dagmutex: WithMember needs WithTransport(TCP(...)); the in-process service hosts every member")
		}
		if o.clock != nil {
			cfg.Clock = o.clock
		}
		if cfg.Transport == nil && (o.fcfg != nil || o.inj != nil) {
			cfg.Transport = lockservice.LocalTransport{Failure: o.fcfg, Injector: o.inj, Clock: o.clock}
		}
		return lockservice.New(cfg)
	}
	if o.clock != nil {
		return nil, fmt.Errorf("dagmutex: WithClock applies to the Local substrate; TCP sockets live on real time")
	}
	member := o.member
	if member == Nil {
		return nil, fmt.Errorf("dagmutex: OpenLockService over TCP needs WithMember(id): each process runs one member")
	}
	tr, err := lockservice.NewTCPTransport(member, o.transport.listen)
	if err != nil {
		return nil, err
	}
	if o.fcfg != nil {
		nodes := cfg.Nodes
		if nodes <= 0 {
			nodes = lockservice.DefaultNodes
		}
		peers := make([]ID, nodes)
		for i := range peers {
			peers[i] = ID(i + 1)
		}
		tr.EnableFailureDetection(*o.fcfg, peers)
	}
	cfg.Transport = tr
	svc, err := lockservice.New(cfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	var q transport.ClientQueue
	if o.queue != nil {
		q = *o.queue
	}
	if err := svc.ServeClientsWith(member, q); err != nil {
		svc.Close()
		return nil, err
	}
	return svc, nil
}

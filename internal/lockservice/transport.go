package lockservice

import (
	"fmt"

	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// Cluster is one shard's runtime as the service sees it: handles for the
// members hosted by this process, plus counters and the shard's error.
// transport.Local satisfies it directly (hosting every member in
// process); the TCP substrate hosts exactly one member per process and
// returns nil handles for the rest.
type Cluster interface {
	// Session returns the acquire/release session for member id, or nil
	// if that member is not hosted by this process.
	Session(id mutex.ID) *runtime.Session
	// Messages counts protocol messages this process observed for the
	// shard (cluster-wide in process, per-member over TCP).
	Messages() int64
	// Err returns the shard's first protocol or transport error, if any.
	Err() error
	// Close stops the shard's locally hosted nodes.
	Close()
}

// Transport is the messaging substrate a lock service runs its shards
// on. The shard code is substrate-agnostic: the same DAG-token instances
// run in process (LocalTransport) or across real processes over sockets
// (TCPTransport).
type Transport interface {
	// StartShard starts shard index's locally hosted protocol members
	// with the given builder and cluster configuration. The configuration
	// is identical on every participating process (same IDs, holder and
	// tree), which every process derives deterministically from the
	// service Config.
	StartShard(index int, b mutex.Builder, cfg mutex.Config) (Cluster, error)
	// Close releases substrate-wide resources after every shard cluster
	// has been closed.
	Close()
}

// LocalTransport runs every member of every shard inside this process,
// connected by mailboxes — the single-process substrate the quickstart,
// tests and benchmarks use. The zero value is the fail-free default;
// arming Failure gives every shard cluster heartbeat failure detection
// (per-shard failover: a crashed member is excised and its shard tokens
// regenerate), and Injector installs a shared fault plan so tests can
// crash members and partition shards deterministically.
type LocalTransport struct {
	// Failure, when set, arms heartbeat failure detection on every shard
	// cluster with this tuning.
	Failure *failure.Config
	// Injector, when set, is the fault plan every shard cluster consults
	// (crashing a member silences it in all shards at once).
	Injector *failure.Injector
	// Clock, when set, runs every shard cluster on it (grant timestamps,
	// detector ticks). Pass the same clock as the service
	// Config.Clock so both layers agree on time.
	Clock vclock.Clock
}

// StartShard implements Transport.
func (t LocalTransport) StartShard(index int, b mutex.Builder, cfg mutex.Config) (Cluster, error) {
	var opts []transport.LocalOption
	if t.Injector != nil {
		opts = append(opts, transport.WithInjector(t.Injector))
	}
	if t.Failure != nil {
		opts = append(opts, transport.WithFailureDetection(*t.Failure))
	}
	if t.Clock != nil {
		opts = append(opts, transport.WithClock(t.Clock))
	}
	return transport.NewLocal(b, cfg, opts...)
}

// Close implements Transport; the per-shard clusters own all resources.
func (LocalTransport) Close() {}

// TCPTransport runs this process's member of every shard over real TCP:
// one listener, shards multiplexed as instances over one framed, batched
// connection per peer process. Each participating process creates its
// own TCPTransport as a distinct member, exchanges Addr values out of
// band, and calls Connect with the full address book before locking.
type TCPTransport struct {
	host *transport.TCPHost
}

// NewTCPTransport starts the substrate for one member process. listen is
// the address to bind ("" means a fresh loopback port, for tests and
// single-machine demos; real deployments pass the address the member
// advertises in the shared book, e.g. ":7001").
func NewTCPTransport(member mutex.ID, listen string) (*TCPTransport, error) {
	if member <= mutex.Nil {
		return nil, fmt.Errorf("lockservice: invalid member id %d", member)
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	host, err := transport.NewTCPHostOn(member, listen, transport.DAGCodec{})
	if err != nil {
		return nil, fmt.Errorf("lockservice: %w", err)
	}
	return &TCPTransport{host: host}, nil
}

// Member returns the member id this process runs as.
func (t *TCPTransport) Member() mutex.ID { return t.host.ID() }

// Addr returns this member's listen address, to be shared with peers.
func (t *TCPTransport) Addr() string { return t.host.Addr() }

// Connect supplies the peer address book (member id -> listen address).
// It must be called before the first Acquire.
func (t *TCPTransport) Connect(addrs map[mutex.ID]string) { t.host.Connect(addrs) }

// EnableFailureDetection arms one host-level heartbeat failure detector
// against the given member set: peer-process death (connection resets,
// silence) becomes a per-peer down verdict delivered to every shard
// instance this process hosts — the per-shard failover path. Call before
// locking begins.
func (t *TCPTransport) EnableFailureDetection(cfg failure.Config, peers []mutex.ID) {
	t.host.EnableFailureDetection(cfg, peers)
}

// StartShard implements Transport: shard index becomes instance index on
// the shared host.
func (t *TCPTransport) StartShard(index int, b mutex.Builder, cfg mutex.Config) (Cluster, error) {
	node, err := t.host.StartInstance(uint32(index), b, cfg)
	if err != nil {
		return nil, err
	}
	return &tcpShard{host: t.host, instance: uint32(index), node: node}, nil
}

// Close shuts the host (listener, connections, all instances) down.
func (t *TCPTransport) Close() { t.host.Close() }

// Register publishes the member host's own counters — link writes,
// dialed-client admission and fence runs — on reg. New calls it beside
// the shards' registration when Config.Telemetry is set.
func (t *TCPTransport) Register(reg *telemetry.Registry) { t.host.Register(reg) }

// NewTCPCluster starts a full distributed lock service inside one
// process: one member Service per id 1..members, each on its own
// loopback TCPTransport, with the address book exchanged and connected —
// the wiring tests, benchmarks and demos need, matching exactly what
// separate processes do by hand. Callers must Close every returned
// Service. cfg.Nodes and cfg.Transport are overridden per member.
//
// When cfg.Telemetry is set, member 1 registers into it and every
// further member gets its own fresh registry — metric names are
// per-shard, so sharing one registry across members would collide,
// and separate processes have separate registries anyway. Read each
// member's through Service.Telemetry. A shared cfg.TraceObserver is
// fine: every member's events funnel into it.
func NewTCPCluster(cfg Config, members int) ([]*Service, error) {
	if members <= 0 {
		return nil, fmt.Errorf("lockservice: need at least one member, got %d", members)
	}
	cfg.Nodes = members
	transports := make([]*TCPTransport, members)
	services := make([]*Service, members)
	cleanup := func() {
		for m := range transports {
			switch {
			case services[m] != nil:
				services[m].Close() // closes its transport too
			case transports[m] != nil:
				transports[m].Close()
			}
		}
	}
	addrs := make(map[mutex.ID]string, members)
	for m := 0; m < members; m++ {
		tr, err := NewTCPTransport(mutex.ID(m+1), "")
		if err != nil {
			cleanup()
			return nil, err
		}
		transports[m] = tr
		addrs[mutex.ID(m+1)] = tr.Addr()
	}
	for m, tr := range transports {
		c := cfg
		c.Transport = tr
		if m > 0 && c.Telemetry != nil {
			c.Telemetry = telemetry.NewRegistry()
		}
		svc, err := New(c)
		if err != nil {
			cleanup()
			return nil, err
		}
		services[m] = svc
	}
	for _, tr := range transports {
		tr.Connect(addrs)
	}
	return services, nil
}

// tcpShard is one shard's view over a TCPTransport: exactly one hosted
// member — the process's own.
type tcpShard struct {
	host     *transport.TCPHost
	instance uint32
	node     *runtime.Node
}

func (s *tcpShard) Session(id mutex.ID) *runtime.Session {
	if id != s.host.ID() {
		return nil
	}
	return s.node.Session()
}

func (s *tcpShard) Messages() int64 { return s.host.InstanceSent(s.instance) }

func (s *tcpShard) Err() error { return s.node.Err() }

func (s *tcpShard) Close() { s.node.Close() }

package main

import (
	"context"
	"fmt"
	"sort"

	"dagmutex/internal/client"
	"dagmutex/internal/gateway"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/transport"
)

// workloadDef is one named workload: why it exists and how to run it.
type workloadDef struct {
	name string
	why  string
	// live is set for the five workloads the closed-loop driver runs.
	live *liveSpec
	// run is set for the two that have their own driver.
	run func(o options, mode traceMode) (*workloadResult, error)
}

// workloads is the suite, in the order it runs and prints. BENCHMARK.json
// repeats the names and reasons; the schema test keeps them equal.
var workloads = []workloadDef{
	{
		name: "member_local_cohort",
		why:  "16 member callers, Zipf keys, one Local shard: cohort regrants do the work, transport and codec none",
		live: &liveSpec{callers: 16, keys: liveKeys, zipf: true, shards: 1, build: buildMemberLocal},
	},
	{
		name: "member_tcp_travel",
		why:  "one caller per TCP member, uniform keys: every grant moves the token, so codec, TCP and mailbox are on the critical path and the cohort never fires",
		live: &liveSpec{callers: members, keys: liveKeys, shards: 1, build: memberTCP(1, members)},
	},
	{
		name: "member_tcp_shards",
		why:  "16 callers over 4 TCP shards, Zipf keys: the deployed shape, a mix of travel and cohort, so a gain for one regime that taxes the other shows",
		live: &liveSpec{callers: 16, keys: liveKeys, zipf: true, shards: 4, build: memberTCP(4, 16)},
	},
	{
		name: "client_direct_hot",
		why:  "2 dialed connections x 8 callers on one key: client framing and member-side coalescing do the work, the gateway none",
		live: &liveSpec{callers: 16, keys: 1, shards: 1, build: buildClientDirect},
	},
	{
		name: "client_gateway_spread",
		why:  "2 connections to one gateway x 8 callers, uniform keys routed over all members: the gateway hop and upstream mux do the extra work, hot-key coalescing is bypassed",
		live: &liveSpec{callers: 16, keys: liveKeys, shards: 1, build: buildClientGateway},
	},
	{
		name: "sim_scale",
		why:  "1000 simulated nodes, no goroutines or sockets: core and the virtual clock do all the work and msgs_per_grant is exact",
		run:  runSim,
	},
	{
		name: "failover_local",
		why:  "5 Local nodes, the holder kills itself mid-hold each round: the only run with faults, exercising failure detection and core recovery",
		run:  runFailover,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runLiveWorkload runs one live workload's passes for mode.
func runLiveWorkload(w workloadDef, o options, mode traceMode) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Seed: o.seed}
	var ref map[string]float64
	if mode != modeTraced {
		runs, err := liveEndToEnd(res, *w.live, o)
		if err != nil {
			return res, err
		}
		// The overhead reference is the median-throughput repeat.
		sort.Slice(runs, func(i, j int) bool { return runs[i]["ops_per_s"] < runs[j]["ops_per_s"] })
		ref = runs[len(runs)/2]
	} else {
		run, err := runLive(*w.live, o.seed, o.warm, o.window, false)
		if err != nil {
			return res, err
		}
		run.countInto(res, "")
		ref = run.endToEnd()
	}
	if mode != modeUntraced {
		b, err := liveTraced(res, *w.live, o, ref)
		if err != nil {
			return res, err
		}
		res.budget = &b
		p99 := ref["acquire_p99_us"]
		if v, ok := res.EndToEnd["acquire_p99_us"]; ok {
			p99 = v.Value
		}
		res.setLayer("acquire_p99_us", p99)
	}
	return res, nil
}

// memberLocker drives one member's lock-service client.
type memberLocker struct{ c *lockservice.Client }

func (m memberLocker) Acquire(ctx context.Context, key string) (uint64, error) {
	h, err := m.c.Acquire(ctx, key)
	return h.Fence, err
}

func (m memberLocker) Release(key string, fence uint64) error {
	return m.c.ReleaseHold(lockservice.Hold{Resource: key, Node: m.c.ID(), Fence: fence})
}

// connLocker drives one dialed connection (to a member or the gateway).
type connLocker struct{ c *client.Conn }

func (l connLocker) Acquire(ctx context.Context, key string) (uint64, error) {
	h, err := l.c.Acquire(ctx, key)
	return h.Fence, err
}

func (l connLocker) Release(key string, fence uint64) error {
	return l.c.ReleaseHold(client.Hold{Resource: key, Fence: fence})
}

// memberLockers spreads callers round-robin over the members: caller i
// acts as member i%len(services)+1 of the service hosting that member.
func memberLockers(services []*lockservice.Service, callers int) ([]Locker, error) {
	out := make([]Locker, callers)
	for i := range out {
		m := i % members
		svc := services[m%len(services)]
		c, err := svc.On(mutex.ID(m + 1))
		if err != nil {
			return nil, err
		}
		out[i] = memberLocker{c}
	}
	return out, nil
}

func closeServices(services []*lockservice.Service) {
	for _, svc := range services {
		svc.Close()
	}
}

func buildMemberLocal(tr *tracer) (*liveCluster, error) {
	cfg := lockservice.Config{Shards: 1, Nodes: members}
	if tr != nil {
		cfg.Transport = tracedTransport{Transport: lockservice.LocalTransport{}, tr: tr}
	}
	svc, err := lockservice.New(cfg)
	if err != nil {
		return nil, err
	}
	services := []*lockservice.Service{svc}
	lockers, err := memberLockers(services, 16)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &liveCluster{lockers: lockers, services: services, close: func() { closeServices(services) }}, nil
}

// tcpMembers starts the 4-member TCP lock service. Untraced it is
// lockservice.NewTCPCluster; traced it is the same wiring by hand, with
// each member's transport wrapped.
func tcpMembers(shards int, tr *tracer) ([]*lockservice.Service, error) {
	cfg := lockservice.Config{Shards: shards}
	if tr == nil {
		return lockservice.NewTCPCluster(cfg, members)
	}
	cfg.Nodes = members
	transports := make([]*lockservice.TCPTransport, 0, members)
	services := make([]*lockservice.Service, 0, members)
	fail := func(err error) ([]*lockservice.Service, error) {
		closeServices(services) // each closes its transport too
		for _, tp := range transports[len(services):] {
			tp.Close()
		}
		return nil, err
	}
	addrs := make(map[mutex.ID]string, members)
	for m := 1; m <= members; m++ {
		tp, err := lockservice.NewTCPTransport(mutex.ID(m), "")
		if err != nil {
			return fail(err)
		}
		transports = append(transports, tp)
		addrs[mutex.ID(m)] = tp.Addr()
	}
	for _, tp := range transports {
		c := cfg
		c.Transport = tracedTransport{Transport: tp, tr: tr}
		svc, err := lockservice.New(c)
		if err != nil {
			return fail(err)
		}
		services = append(services, svc)
	}
	for _, tp := range transports {
		tp.Connect(addrs)
	}
	return services, nil
}

func memberTCP(shards, callers int) func(*tracer) (*liveCluster, error) {
	return func(tr *tracer) (*liveCluster, error) {
		services, err := tcpMembers(shards, tr)
		if err != nil {
			return nil, err
		}
		lockers, err := memberLockers(services, callers)
		if err != nil {
			closeServices(services)
			return nil, err
		}
		return &liveCluster{lockers: lockers, services: services, close: func() { closeServices(services) }}, nil
	}
}

// clientTier is the dialed-client half of a client workload under
// construction; its close undoes whatever was started, in reverse.
type clientTier struct {
	services  []*lockservice.Service
	listeners []*transport.ClientGateway // traced pass: one timing listener per serving member
	backends  []*timedBackend
	gw        *gateway.Gateway
	conns     []*client.Conn
}

func (t *clientTier) close() {
	for _, c := range t.conns {
		_ = c.Close()
	}
	if t.gw != nil {
		_ = t.gw.Close()
	}
	for _, l := range t.listeners {
		l.Close()
	}
	closeServices(t.services)
}

// serve opens member m (1-based) to dialed clients and returns the address
// to dial. Untraced that is the member's own listener; traced,
// ServeClientsWith cannot be used (it needs the concrete TCP transport the
// tracing wrapper hides), so the member's ClientBackend is served through
// a timing wrapper on a listener of its own.
func (t *clientTier) serve(m int, q transport.ClientQueue, tr *tracer) (string, error) {
	svc := t.services[m-1]
	if tr == nil {
		if err := svc.ServeClientsWith(mutex.ID(m), q); err != nil {
			return "", err
		}
		return svc.Addr(), nil
	}
	b, err := svc.ClientBackend(mutex.ID(m))
	if err != nil {
		return "", err
	}
	tb := &timedBackend{inner: b, tr: tr, shards: 1}
	l, err := transport.NewClientGatewayWith("", tb, q)
	if err != nil {
		return "", err
	}
	t.backends = append(t.backends, tb)
	t.listeners = append(t.listeners, l)
	return l.Addr(), nil
}

// dial opens the two caller connections (addrs[i%len]) and spreads 16
// callers over them, 8 each.
func (t *clientTier) dial(addrs []string) ([]Locker, error) {
	const conns, perConn = 2, 8
	for i := 0; i < conns; i++ {
		c, err := client.Dial(addrs[i%len(addrs)])
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addrs[i%len(addrs)], err)
		}
		t.conns = append(t.conns, c)
	}
	lockers := make([]Locker, 0, conns*perConn)
	for _, c := range t.conns {
		for j := 0; j < perConn; j++ {
			lockers = append(lockers, connLocker{c})
		}
	}
	return lockers, nil
}

func (t *clientTier) cluster(lockers []Locker, admission func() transport.ClientStats) *liveCluster {
	return &liveCluster{lockers: lockers, services: t.services, backends: t.backends,
		admission: admission, close: t.close}
}

func buildClientDirect(tr *tracer) (*liveCluster, error) {
	services, err := tcpMembers(1, tr)
	if err != nil {
		return nil, err
	}
	t := &clientTier{services: services}
	var addrs []string
	for m := 1; m <= 2; m++ {
		addr, err := t.serve(m, transport.ClientQueue{}, tr)
		if err != nil {
			t.close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	lockers, err := t.dial(addrs)
	if err != nil {
		t.close()
		return nil, err
	}
	var admission func() transport.ClientStats
	if tr != nil {
		admission = func() (sum transport.ClientStats) {
			for _, l := range t.listeners {
				st := l.Stats()
				sum.Inflight += st.Inflight
				sum.Admitted += st.Admitted
				sum.ShedDepth += st.ShedDepth
				sum.ShedRate += st.ShedRate
			}
			return sum
		}
	}
	return t.cluster(lockers, admission), nil
}

func buildClientGateway(tr *tracer) (*liveCluster, error) {
	services, err := tcpMembers(1, tr)
	if err != nil {
		return nil, err
	}
	t := &clientTier{services: services}
	var addrs []string
	for m := 1; m <= members; m++ {
		// The gateway funnels every caller over one upstream connection
		// per member, so the member's per-connection depth must not shed
		// behind the gateway's back.
		addr, err := t.serve(m, transport.ClientQueue{Depth: 1 << 20}, tr)
		if err != nil {
			t.close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	if t.gw, err = gateway.New(gateway.Config{Members: addrs}); err != nil {
		t.close()
		return nil, err
	}
	lockers, err := t.dial([]string{t.gw.Addr()})
	if err != nil {
		t.close()
		return nil, err
	}
	var admission func() transport.ClientStats
	if tr != nil {
		admission = t.gw.Stats
	}
	return t.cluster(lockers, admission), nil
}

// Package gateway is the scale-out tier of the member/client split: a
// standalone process that speaks the CLIENT wire protocol to a large
// population of dialed clients on one side and multiplexes all of them
// over a handful of upstream member connections on the other.
//
// A member's own listener already serves dialed clients, but every
// connection costs the member a goroutine and a socket; at thousands of
// clients that load lands on the same process that must keep the token
// protocol responsive. A gateway absorbs the fan-in instead: clients
// dial the gateway exactly as they would a member (same handshake, same
// frames, same sentinels), the gateway coalesces their requests onto
// one upstream connection per member, and the member sees a single
// well-behaved client whose requests its proxy coalesces further into
// single DAG acquires. Admission control (transport.ClientQueue) runs
// at the gateway's edge, so overload is shed before it ever crosses to
// the members.
//
// Routing is by resource: a named resource always lands on the same
// member (so the lock service's per-member slot coalescing keeps
// working), and a plain cluster's single mutex ("") always lands on one
// member (so its proxy coalesces the whole population). When the routed
// member is unreachable the gateway fails over to the next, and
// remembers which member granted a hold so the release finds it.
//
// Each upstream connection learns from its member's hello how many lock
// shards the member's resources hash into, and keeps one lane per shard:
// a fence run the member grants for one resource is handed, inside the
// gateway, to the next waiter on any resource of that shard, so a
// handoff between two of the gateway's clients crosses no member socket
// at all. Its own clients the gateway tells that it grants no runs — its
// upstream connections take them — and names 0 shards in its hello, so
// a connection to it keeps one lane per resource.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/runtime"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// dialTimeout bounds each upstream dial attempt, so failover walks on
// to the next member instead of hanging on a dead one.
const dialTimeout = 2 * time.Second

// Reconnect backoff bounds for a failed upstream. After every failed
// dial the member is quarantined for a jittered, exponentially growing
// delay: requests routed there during the quarantine fail over
// immediately instead of each paying a fresh dial attempt (the previous
// lazy-redial behavior), and when the member comes back the jitter
// keeps a fleet of gateways from greeting it with one synchronized
// thundering herd of redials.
const (
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// backoffDelay returns the quarantine after the n-th consecutive dial
// failure (n >= 1): backoffBase doubled per failure, capped at
// backoffCap, with uniform jitter over the upper half of the interval
// — the result is in [cap/2, cap) once saturated. rng supplies the
// jitter draw in [0, 1) (rand.Float64 in production; fixed in tests).
func backoffDelay(n int, rng func() float64) time.Duration {
	d := backoffCap
	if n < 10 { // beyond 2^9 the shift is past the cap anyway
		if shifted := backoffBase << (n - 1); shifted < d {
			d = shifted
		}
	}
	half := d / 2
	return half + time.Duration(rng()*float64(half))
}

// Config configures a Gateway.
type Config struct {
	// Listen is the gateway's client-facing listen address ("" for a
	// fresh loopback port).
	Listen string
	// Members are the member listen addresses to multiplex over (at
	// least one).
	Members []string
	// Queue is the admission control applied at the gateway's edge; the
	// zero value is the member default (depth 64, no rate limit).
	Queue transport.ClientQueue
	// Clock, when set, drives the reconnect-backoff quarantine deadlines
	// (nil means the system clock). The gateway is a TCP-facing tier, so
	// its dials and I/O stay on real time regardless; the clock only
	// decides when a quarantined member may be redialed — which is what
	// tests need to make backoff deterministic.
	Clock vclock.Clock
}

// Gateway is a running gateway: a client-protocol listener whose
// backend routes over upstream member connections. Construct with New;
// Close it to hang up every client and upstream.
type Gateway struct {
	srv *transport.ClientGateway
	b   *backend
}

// New starts a gateway per cfg. The member connections are dialed
// lazily (on first use, and again after a failure), so New succeeds
// even while the members are still coming up.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("gateway: no member addresses")
	}
	b := newBackend(cfg.Members, vclock.Or(cfg.Clock))
	srv, err := transport.NewClientGatewayWith(cfg.Listen, b, cfg.Queue)
	if err != nil {
		b.close()
		return nil, err
	}
	return &Gateway{srv: srv, b: b}, nil
}

// Addr returns the gateway's client-facing listen address.
func (g *Gateway) Addr() string { return g.srv.Addr() }

// Stats snapshots the gateway's admission counters: connections,
// in-flight requests, admitted and shed totals.
func (g *Gateway) Stats() transport.ClientStats { return g.srv.Stats() }

// Register publishes the gateway's client-tier admission counters on
// reg (the dagmutex_client_* families; see internal/transport). Serve
// reg over HTTP with telemetry.Serve.
func (g *Gateway) Register(reg *telemetry.Registry) { g.srv.Register(reg) }

// Close stops the listener, severs every client connection (releasing
// the holds they owned upstream), then hangs up the member connections.
func (g *Gateway) Close() error {
	g.srv.Close()
	g.b.close()
	return nil
}

// upstream is one member connection, dialed on first use and redialed
// after failures under a jittered exponential backoff. The mutex
// serializes dialing, not requests: a healthy connection is handed out
// immediately and used concurrently.
type upstream struct {
	addr string
	clk  vclock.Clock // never nil; quarantine deadlines only

	mu        sync.Mutex
	conn      *client.Conn
	closed    bool
	failures  int       // consecutive failed dials since the last success
	notBefore time.Time // quarantine deadline; no redial attempt before it
}

// get returns a healthy connection to this member, dialing (bounded by
// ctx and dialTimeout) if the previous one died. The dial itself is the
// health check — it includes the client-protocol handshake — so a
// success ends the member's quarantine, while a failure extends it
// exponentially; during a quarantine get fails fast without touching
// the network, and the failover walk moves on to the next member.
func (u *upstream) get(ctx context.Context) (*client.Conn, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, errors.New("gateway: closed")
	}
	if u.conn != nil && u.conn.Err() == nil {
		return u.conn, nil
	}
	if u.conn != nil {
		_ = u.conn.Close()
		u.conn = nil
	}
	if wait := u.clk.Until(u.notBefore); wait > 0 {
		return nil, fmt.Errorf("gateway: member %s backing off after %d failed dials (next attempt in %s)",
			u.addr, u.failures, wait.Round(time.Millisecond))
	}
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	c, err := client.DialContext(dctx, u.addr)
	if err != nil {
		u.failures++
		u.notBefore = u.clk.Now().Add(backoffDelay(u.failures, rand.Float64))
		return nil, err
	}
	u.failures, u.notBefore = 0, time.Time{}
	u.conn = c
	return c, nil
}

// backend implements transport.ClientBackend over the upstream set.
type backend struct {
	ups []*upstream

	// holds remembers grants that failover placed on a member other
	// than the resource's routed one (resource -> fence -> upstream
	// index), so their release finds the granting member. Grants on the
	// routed member are not recorded — the hash re-derives them — so
	// the map stays empty in the steady state.
	mu    sync.Mutex
	holds map[string]map[uint64]int
}

func newBackend(members []string, clk vclock.Clock) *backend {
	b := &backend{ups: make([]*upstream, len(members)), holds: make(map[string]map[uint64]int)}
	for i, addr := range members {
		b.ups[i] = &upstream{addr: addr, clk: clk}
	}
	return b
}

func (b *backend) close() {
	for _, u := range b.ups {
		u.mu.Lock()
		u.closed = true
		if u.conn != nil {
			_ = u.conn.Close()
			u.conn = nil
		}
		u.mu.Unlock()
	}
}

// route picks resource's home member: transport.ShardOf over the member
// count. Stable, so releases and repeat acquires of the same resource
// reach the same member and coalesce there.
func (b *backend) route(resource string) int { return transport.ShardOf(resource, len(b.ups)) }

// record remembers a grant that landed off its routed member.
func (b *backend) record(resource string, fence uint64, idx int) {
	if idx == b.route(resource) {
		return
	}
	b.mu.Lock()
	m := b.holds[resource]
	if m == nil {
		m = make(map[uint64]int)
		b.holds[resource] = m
	}
	m[fence] = idx
	b.mu.Unlock()
}

// take looks up (and forgets) where a fence's grant lives, reporting
// false when it was on the routed member all along.
func (b *backend) take(resource string, fence uint64) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.holds[resource]
	if !ok {
		return 0, false
	}
	idx, ok := m[fence]
	if ok {
		delete(m, fence)
		if len(m) == 0 {
			delete(b.holds, resource)
		}
	}
	return idx, ok
}

// failedOver reports whether an upstream error means "try the next
// member" rather than "answer the client": the connection died under
// the request, or the member's own session is down.
func failedOver(conn *client.Conn, err error) bool {
	return conn.Err() != nil || errors.Is(err, client.ErrClosed) || errors.Is(err, runtime.ErrNodeDown)
}

// Acquire implements transport.ClientBackend: route, then walk the
// member ring until one answers.
func (b *backend) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	start := b.route(resource)
	var lastErr error
	for i := 0; i < len(b.ups); i++ {
		idx := (start + i) % len(b.ups)
		conn, err := b.ups[idx].get(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return 0, time.Time{}, recode(err)
			}
			lastErr = err
			continue
		}
		h, err := conn.Acquire(ctx, resource)
		if err != nil {
			if ctx.Err() == nil && failedOver(conn, err) {
				lastErr = err
				continue
			}
			return 0, time.Time{}, recode(err)
		}
		b.record(resource, h.Fence, idx)
		return h.Fence, h.Expires, nil
	}
	return 0, time.Time{}, recode(fmt.Errorf("gateway: no member reachable for %q: %w", resource, lastErr))
}

// TryAcquire implements transport.ClientBackend with the same failover
// walk; "would wait" is answered by the routed member, not retried.
func (b *backend) TryAcquire(resource string) (uint64, time.Time, bool, error) {
	start := b.route(resource)
	var lastErr error
	for i := 0; i < len(b.ups); i++ {
		idx := (start + i) % len(b.ups)
		conn, err := b.ups[idx].get(context.Background())
		if err != nil {
			lastErr = err
			continue
		}
		h, ok, err := conn.TryAcquire(resource)
		if err != nil {
			if failedOver(conn, err) {
				lastErr = err
				continue
			}
			return 0, time.Time{}, false, recode(err)
		}
		if !ok {
			return 0, time.Time{}, false, nil
		}
		b.record(resource, h.Fence, idx)
		return h.Fence, h.Expires, true, nil
	}
	return 0, time.Time{}, false, recode(fmt.Errorf("gateway: no member reachable for %q: %w", resource, lastErr))
}

// Release implements transport.ClientBackend: the fence's recorded
// member if failover moved the grant, the routed member otherwise.
func (b *backend) Release(resource string, fence uint64) error {
	idx, ok := b.take(resource, fence)
	if !ok {
		idx = b.route(resource)
	}
	conn, err := b.ups[idx].get(context.Background())
	if err != nil {
		return recode(err)
	}
	if fence == 0 {
		return recode(conn.Release(resource))
	}
	return recode(conn.ReleaseHold(client.Hold{Resource: resource, Fence: fence}))
}

// recode re-tags the upstream's busy signal with its wire code for the
// trip back to the dialed client. Every other sentinel passes through
// untouched: the transport encoder knows the runtime and context ones,
// the hold-lifecycle pair included.
func recode(err error) error {
	if errors.Is(err, client.ErrBusy) {
		return &transport.CodedError{Code: transport.CodeBusy, Err: err}
	}
	return err
}

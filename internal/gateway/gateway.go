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
// Routing is by lock domain. A member's hello names S, how many lock
// shards its resources hash into; the gateway learns S from the first
// member it reaches, before its first routing decision, and keeps it for
// life. A member that names none counts as one domain: the gateway
// cannot tell independent resources from undisclosed sharing. Of D =
// max(S, 1) domains over M members, resource r is in domain d =
// ShardOf(r, D), and d has the members d, d+D, d+2D, … below M to
// itself (member d mod M alone where D ≥ M). A client connection reaches
// one of them for all of the domain's resources — the gateway numbers
// its connections as they arrive and takes that number mod the domain's
// member count — so a connection's waiters on a domain all meet in one
// member's slot, and a run's release that tells that member the
// connection's next acquire is on its way is right about where it goes.
// Where D ≥ M a domain's token stays at its member; where the members
// outnumber the domains it travels between them only when consecutive
// holders come through connections placed on different ones, which with
// runs is at most once per run. That travel is a cost, not a gain:
// keeping each domain on member d mod M alone measures faster, and
// placement stays only while bench requires client_gateway_spread (one
// domain, four members) to move its token (see ROADMAP item 8(e)). A
// try that would wait at the routed member is put to the domain's other
// members in turn, since a free lock's idle token may sit at any of
// them; where D ≥ M there are none, and a try costs one round trip. A
// member whose hello names another S is refused like a failed dial — a
// domain must be the same lock at every
// member the gateway reaches. When the routed member is unreachable the
// gateway fails over to the next, and remembers which member granted a
// hold so the release finds it.
//
// The gateway names S in its own hello and passes fence runs through. A
// client's connection to it keeps one lane per domain, exactly as
// against a member, and a run that lane orders goes upstream as a marked
// acquire on the domain member's connection (client.Conn.AcquireRun,
// past that connection's own lanes); the run comes back to the client
// whole, so a handoff between two callers of one client connection costs
// no frame at all. Ordinary acquires ride the upstream connection's
// shard lanes, where a run the member grants for one resource is handed
// to the gateway's next waiter on any resource of that shard.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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

// helloBudget bounds how long a client's hello waits for the gateway to
// reach a member and learn S: well inside the dialing side's own hello
// timeout (10 s).
const helloBudget = 5 * time.Second

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
	srv, err := transport.NewClientGatewayWith(cfg.Listen, front{backend: b}, cfg.Queue)
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
// The dials the gateway makes on its own behalf end first, so a client
// hello still waiting for S is answered at once.
func (g *Gateway) Close() error {
	g.b.stop()
	g.srv.Close()
	g.b.close()
	return nil
}

// upstream is one member connection, dialed on first use and redialed
// after failures under a jittered exponential backoff. The mutex
// serializes dialing, not requests: a healthy connection is handed out
// immediately and used concurrently.
type upstream struct {
	addr   string
	clk    vclock.Clock  // never nil; quarantine deadlines only
	shards *atomic.Int32 // the backend's S plus one (see backend.shards)

	mu        sync.Mutex
	conn      *client.Conn
	closed    bool
	failures  int       // consecutive failed dials since the last success
	notBefore time.Time // quarantine deadline; no redial attempt before it
}

// get returns a healthy connection to this member, dialing (bounded by
// ctx and dialTimeout) if the previous one died. The dial itself is the
// health check — it includes the client-protocol handshake, whose hello
// must name the gateway's S (the first hello any member sends fixes it)
// — so a success ends the member's quarantine, while a failure extends
// it exponentially; during a quarantine get fails fast without touching
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
	if err == nil {
		u.shards.CompareAndSwap(0, int32(c.Shards())+1)
		if want := int(u.shards.Load()) - 1; c.Shards() != want {
			_ = c.Close()
			err = fmt.Errorf("gateway: member %s names %d lock domains, not the %d the gateway routes by", u.addr, c.Shards(), want)
		}
	}
	if err != nil {
		u.failures++
		u.notBefore = u.clk.Now().Add(backoffDelay(u.failures, rand.Float64))
		return nil, err
	}
	u.failures, u.notBefore = 0, time.Time{}
	u.conn = c
	return c, nil
}

// backend is the state the gateway's client connections share: the
// upstream set, the members' S, and where failover placed holds. A
// connection reaches it through a front.
type backend struct {
	ups []*upstream

	// shards is S plus one: the lock domains the members' hellos name,
	// set by the first hello an upstream reads and fixed from then on. 0
	// until then.
	shards atomic.Int32

	// conns numbers the client connections in the order they arrive.
	conns atomic.Int64

	// ctx bounds every dial the gateway makes on its own behalf (the
	// releases, the hello's wait for S); stop ends it.
	ctx  context.Context
	stop context.CancelFunc

	// holds remembers grants that failover placed on a member other
	// than the connection's routed one (-> upstream index), so their
	// release finds the granting member. Grants on the routed member are
	// not recorded — the route re-derives them — so the map stays empty
	// in the steady state.
	mu    sync.Mutex
	holds map[heldAt]int
}

// heldAt names a hold by its resource and the (last) fence its release
// names.
type heldAt struct {
	resource string
	fence    uint64
}

func newBackend(members []string, clk vclock.Clock) *backend {
	b := &backend{ups: make([]*upstream, len(members)), holds: make(map[heldAt]int)}
	b.ctx, b.stop = context.WithCancel(context.Background())
	for i, addr := range members {
		b.ups[i] = &upstream{addr: addr, clk: clk, shards: &b.shards}
	}
	return b
}

func (b *backend) close() {
	b.stop()
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

// learn reaches members in ring order until one answers, which fixes S.
func (b *backend) learn(ctx context.Context) error {
	var lastErr error
	for _, u := range b.ups {
		_, err := u.get(ctx)
		if b.shards.Load() != 0 {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

// record remembers a grant that failover placed off its routed member,
// under the fence its release will name.
func (b *backend) record(resource string, fence uint64, idx int) {
	b.mu.Lock()
	b.holds[heldAt{resource, fence}] = idx
	b.mu.Unlock()
}

// take looks up (and forgets) where a fence's grant lives, reporting
// false when it was on the routed member all along.
func (b *backend) take(resource string, fence uint64) (int, bool) {
	k := heldAt{resource, fence}
	b.mu.Lock()
	defer b.mu.Unlock()
	idx, ok := b.holds[k]
	delete(b.holds, k)
	return idx, ok
}

// failedOver reports whether an upstream error means "try the next
// member" rather than "answer the client": the connection died under
// the request, or the member's own session is down.
func failedOver(conn *client.Conn, err error) bool {
	return conn.Err() != nil || errors.Is(err, client.ErrClosed) || errors.Is(err, runtime.ErrNodeDown)
}

// front is one client connection's view of the backend: the
// transport.ClientBackend, RunBackend and ConnBackend it is served
// through, which routes by the connection's place among its domain's
// members.
type front struct {
	*backend
	place int // the connection's number, in the order connections arrived
}

// ForConn implements transport.ConnBackend: each client connection gets
// a front of its own, numbered after the one before.
func (f front) ForConn() transport.ClientBackend {
	return front{f.backend, int(f.conns.Add(1) - 1)}
}

// route picks the connection's member for resource — learning S first if
// no member has been reached yet: resource's domain d among D = max(S, 1),
// and of the members d, d+D, … that d has to itself, the one the
// connection's place selects. Stable, so the connection's waiters on a
// domain meet in one member's slot and its releases find their grants.
// It returns the member and d.
func (f front) route(ctx context.Context, resource string) (member, domain int, err error) {
	if f.shards.Load() == 0 {
		if err := f.learn(ctx); err != nil {
			return 0, 0, fmt.Errorf("gateway: no member reachable for %q: %w", resource, err)
		}
	}
	domains, members := f.domains(), len(f.ups)
	d := transport.ShardOf(resource, domains)
	return (d + domains*(f.place%max(members/domains, 1))) % members, d, nil
}

// domains is D = max(S, 1).
func (b *backend) domains() int { return max(int(b.shards.Load())-1, 1) }

// serves reports whether member idx is one of those domain d has to
// itself: d, d+D, … below M, or d mod M alone where D ≥ M.
func (b *backend) serves(idx, d int) bool {
	domains, members := b.domains(), len(b.ups)
	if domains >= members {
		return idx == d%members
	}
	return idx%domains == d && idx < domains*(members/domains)
}

// Shards implements transport.RunBackend: the members' S, which the
// gateway's hello names. A client that connects before any member was
// reached waits up to helloBudget for the gateway to reach one; 0 while
// none is reachable, and the connection is then served without runs.
func (f front) Shards() int {
	if f.shards.Load() == 0 {
		ctx, cancel := context.WithTimeout(f.ctx, helloBudget)
		_ = f.learn(ctx)
		cancel()
	}
	return max(int(f.shards.Load())-1, 0)
}

// acquire routes resource, then walks the member ring from there until
// one member grants op (transport.OpAcquire, OpTry or OpAcquireRun): the
// hold, how many fences it covers, and for a try whether it was granted
// at all. An unreachable member passes the request on, and so, for a
// try, does a member where it would wait — but only to the domain's own
// members: the domain's token may sit idle at another of them.
func (f front) acquire(ctx context.Context, resource string, op byte) (h client.Hold, run int, ok bool, err error) {
	start, d, err := f.route(ctx, resource)
	if err != nil {
		return client.Hold{}, 0, false, recode(err)
	}
	var lastErr error
	waited := false
	for i := range f.ups {
		idx := (start + i) % len(f.ups)
		if waited && !f.serves(idx, d) {
			continue
		}
		conn, err := f.ups[idx].get(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return client.Hold{}, 0, false, recode(err)
			}
			lastErr = err
			continue
		}
		run, ok = 1, true
		switch op {
		case transport.OpTry:
			h, ok, err = conn.TryAcquire(resource)
		case transport.OpAcquireRun:
			h, run, err = conn.AcquireRun(ctx, resource)
		default:
			h, err = conn.Acquire(ctx, resource)
		}
		if err != nil {
			if ctx.Err() == nil && failedOver(conn, err) {
				lastErr = err
				continue
			}
			return client.Hold{}, 0, false, recode(err)
		}
		if !ok {
			waited = true
			continue
		}
		if idx != start {
			f.record(resource, h.Fence+uint64(run-1), idx)
		}
		return h, run, true, nil
	}
	if waited {
		return client.Hold{}, 0, false, nil
	}
	return client.Hold{}, 0, false, recode(fmt.Errorf("gateway: no member reachable for %q: %w", resource, lastErr))
}

// Acquire implements transport.ClientBackend.
func (f front) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	h, _, _, err := f.acquire(ctx, resource, transport.OpAcquire)
	return h.Fence, h.Expires, err
}

// TryAcquire implements transport.ClientBackend: it grants when some
// member can grant at once, which a free lock's idle token lets one do.
func (f front) TryAcquire(resource string) (uint64, time.Time, bool, error) {
	h, _, ok, err := f.acquire(f.ctx, resource, transport.OpTry)
	return h.Fence, h.Expires, ok, err
}

// AcquireRun implements transport.RunBackend: the client's marked
// acquire goes on to the member as one, and the run comes back whole.
func (f front) AcquireRun(ctx context.Context, resource string) (uint64, time.Time, int, error) {
	h, run, _, err := f.acquire(ctx, resource, transport.OpAcquireRun)
	return h.Fence, h.Expires, run, err
}

// owner returns the connection to the member that granted resource's
// hold under fence: the one failover recorded (placed), or the routed
// member.
func (f front) owner(resource string, fence uint64) (conn *client.Conn, placed bool, err error) {
	idx, placed := f.take(resource, fence)
	if !placed {
		if idx, _, err = f.route(f.ctx, resource); err != nil {
			return nil, false, err
		}
	}
	conn, err = f.ups[idx].get(f.ctx)
	return conn, placed, err
}

// Release implements transport.ClientBackend: the fence's recorded
// member if failover moved the grant, the routed member otherwise.
func (f front) Release(resource string, fence uint64) error {
	conn, _, err := f.owner(resource, fence)
	switch {
	case err != nil:
		return recode(err)
	case fence == 0:
		return recode(conn.Release(resource))
	}
	return recode(conn.ReleaseHold(client.Hold{Resource: resource, Fence: fence}))
}

// ReleaseRun implements transport.RunBackend: the run goes back to the
// member that granted it. more is passed on only to the connection's
// routed member for the domain, which is where its next acquire will go;
// a run that failover placed elsewhere ends with more = false, or that
// member would hold a handoff for an acquire that never comes to it.
func (f front) ReleaseRun(resource string, last uint64, used int, more bool) error {
	conn, placed, err := f.owner(resource, last)
	if err != nil {
		return recode(err)
	}
	return recode(conn.ReleaseRun(resource, last, used, more && !placed))
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

package conformance

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/gateway"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/transport"
)

// This file is the client battery: the conformance checks for the
// member/client split. A dialed client — a process that is NOT a vertex
// of the token DAG — must see exactly the semantics an in-process
// member client sees: blocking acquire with fencing tokens, lease
// expiry with ErrLeaseExpired, ErrNotHeld on bogus releases, context
// cancellation that never leaks a hold, and disconnect cleanup. The
// same battery runs over both member substrates: members on in-process
// mailboxes fronted by a client gateway, and members over TCP serving
// clients on their own listeners.

// ClientSubstrate describes one way dialed clients reach a member.
type ClientSubstrate struct {
	// Name labels subtests ("local-gateway", "tcp").
	Name string
	// Start launches a lock cluster with the given configuration and
	// members member nodes, serving clients through member 1, and returns
	// the address clients dial plus a teardown.
	Start func(cfg lockservice.Config, members int) (addr string, close func(), err error)
	// StartMembers, where clients can choose their member, launches the
	// same cluster serving clients through every member: addrs[i] reaches
	// member i+1, and stats sums the members' counters. Nil for the
	// gateway tier, which does the choosing itself.
	StartMembers func(cfg lockservice.Config, members int) (addrs []string, stats func() lockservice.Stats, close func(), err error)
}

// ClientSubstrates returns the standard client access paths: a
// standalone gateway fronting an in-process member cluster, a TCP
// member cluster whose own listeners demultiplex client connections,
// and the gateway tier multiplexing dialed clients over every member
// of a TCP cluster.
func ClientSubstrates() []ClientSubstrate {
	return []ClientSubstrate{
		{
			Name: "local-gateway",
			Start: func(cfg lockservice.Config, members int) (string, func(), error) {
				cfg.Nodes = members
				cfg.Transport = lockservice.LocalTransport{}
				svc, err := lockservice.New(cfg)
				if err != nil {
					return "", nil, err
				}
				backend, err := svc.ClientBackend(1)
				if err != nil {
					svc.Close()
					return "", nil, err
				}
				gw, err := transport.NewClientGateway("", backend)
				if err != nil {
					svc.Close()
					return "", nil, err
				}
				return gw.Addr(), func() { gw.Close(); svc.Close() }, nil
			},
			StartMembers: func(cfg lockservice.Config, members int) ([]string, func() lockservice.Stats, func(), error) {
				cfg.Nodes = members
				cfg.Transport = lockservice.LocalTransport{}
				svc, err := lockservice.New(cfg)
				if err != nil {
					return nil, nil, nil, err
				}
				closeAll := svc.Close
				addrs := make([]string, members)
				for i := range addrs {
					backend, err := svc.ClientBackend(mutex.ID(i + 1))
					if err != nil {
						closeAll()
						return nil, nil, nil, err
					}
					gw, err := transport.NewClientGateway("", backend)
					if err != nil {
						closeAll()
						return nil, nil, nil, err
					}
					addrs[i] = gw.Addr()
					inner := closeAll
					closeAll = func() { gw.Close(); inner() }
				}
				return addrs, svc.Stats, closeAll, nil
			},
		},
		{
			Name: "tcp",
			Start: func(cfg lockservice.Config, members int) (string, func(), error) {
				services, err := lockservice.NewTCPCluster(cfg, members)
				if err != nil {
					return "", nil, err
				}
				closeAll := func() {
					for _, svc := range services {
						svc.Close()
					}
				}
				if err := services[0].ServeClients(1); err != nil {
					closeAll()
					return "", nil, err
				}
				return services[0].Addr(), closeAll, nil
			},
			StartMembers: func(cfg lockservice.Config, members int) ([]string, func() lockservice.Stats, func(), error) {
				services, err := lockservice.NewTCPCluster(cfg, members)
				if err != nil {
					return nil, nil, nil, err
				}
				closeAll := func() {
					for _, svc := range services {
						svc.Close()
					}
				}
				addrs := make([]string, members)
				for i, svc := range services {
					if err := svc.ServeClients(mutex.ID(i + 1)); err != nil {
						closeAll()
						return nil, nil, nil, err
					}
					addrs[i] = svc.Addr()
				}
				stats := func() (sum lockservice.Stats) {
					for _, svc := range services {
						st := svc.Stats()
						sum.Grants += st.Grants
						sum.Releases += st.Releases
						sum.Regrants += st.Regrants
						sum.Expired += st.Expired
					}
					return sum
				}
				return addrs, stats, closeAll, nil
			},
		},
		{
			Name: "gateway",
			Start: func(cfg lockservice.Config, members int) (string, func(), error) {
				services, err := lockservice.NewTCPCluster(cfg, members)
				if err != nil {
					return "", nil, err
				}
				closeAll := func() {
					for _, svc := range services {
						svc.Close()
					}
				}
				addrs := make([]string, members)
				for i, svc := range services {
					if err := svc.ServeClients(mutex.ID(i + 1)); err != nil {
						closeAll()
						return "", nil, err
					}
					addrs[i] = svc.Addr()
				}
				gw, err := gateway.New(gateway.Config{Members: addrs})
				if err != nil {
					closeAll()
					return "", nil, err
				}
				return gw.Addr(), func() { _ = gw.Close(); closeAll() }, nil
			},
		},
	}
}

// RunClients executes the client battery over every substrate.
func RunClients(t *testing.T, subs []ClientSubstrate) {
	t.Helper()
	for _, sub := range subs {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) {
			t.Run("AcquireFenceRelease", func(t *testing.T) { clientAcquireFenceRelease(t, sub) })
			t.Run("TryAcquire", func(t *testing.T) { clientTryAcquire(t, sub) })
			t.Run("NotHeld", func(t *testing.T) { clientNotHeld(t, sub) })
			t.Run("LeaseExpiry", func(t *testing.T) { clientLeaseExpiry(t, sub) })
			t.Run("CancelPropagation", func(t *testing.T) { clientCancelPropagation(t, sub) })
			t.Run("DisconnectCleanup", func(t *testing.T) { clientDisconnectCleanup(t, sub) })
			t.Run("Backpressure", func(t *testing.T) { clientBackpressure(t, sub) })
			t.Run("CoalescedFences", func(t *testing.T) { clientCoalescedFences(t, sub) })
			t.Run("CoalescedCancelIsolation", func(t *testing.T) { clientCoalescedCancelIsolation(t, sub) })
			t.Run("CoalescedDisconnectIsolation", func(t *testing.T) { clientCoalescedDisconnectIsolation(t, sub) })
			if sub.StartMembers != nil {
				t.Run("RunFences", func(t *testing.T) { clientRunFences(t, sub) })
				t.Run("RunLeaseExpiry", func(t *testing.T) { clientRunLeaseExpiry(t, sub) })
			}
		})
	}
}

// start launches a cluster and n dialed clients.
func (sub ClientSubstrate) start(t *testing.T, cfg lockservice.Config, members, n int) []*client.Conn {
	t.Helper()
	addr, closeAll, err := sub.Start(cfg, members)
	if err != nil {
		t.Fatalf("start %s client cluster: %v", sub.Name, err)
	}
	t.Cleanup(closeAll)
	conns := make([]*client.Conn, n)
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial client %d: %v", i, err)
		}
		t.Cleanup(func() { _ = c.Close() })
		conns[i] = c
	}
	return conns
}

// clientAcquireFenceRelease hammers one resource from several dialed
// clients at once: mutual exclusion is witnessed by an unsynchronized
// counter, and every grant's fence must strictly exceed the previous
// one — over the wire, exactly as in process.
func clientAcquireFenceRelease(t *testing.T, sub ClientSubstrate) {
	const clients, perClient = 4, 6
	conns := sub.start(t, lockservice.Config{Shards: 2}, 2, clients)
	var inCS, total atomic.Int64
	var lastFence atomic.Uint64 // written only inside the CS
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for j := 0; j < perClient; j++ {
				h, err := c.Acquire(ctx, "contended")
				if err != nil {
					t.Errorf("client %d acquire: %v", i, err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("mutual exclusion violated: %d clients in CS", got)
				}
				if h.Fence == 0 {
					t.Errorf("client %d hold carries no fence", i)
				}
				if prev := lastFence.Load(); h.Fence <= prev {
					t.Errorf("client %d fence %d not above previous %d", i, h.Fence, prev)
				}
				lastFence.Store(h.Fence)
				total.Add(1)
				inCS.Add(-1)
				if err := c.ReleaseHold(h); err != nil {
					t.Errorf("client %d release: %v", i, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if got := total.Load(); got != clients*perClient {
		t.Fatalf("entries = %d, want %d", got, clients*perClient)
	}
}

// clientTryAcquire checks the no-wait path end to end: a held resource
// reports false without queueing, a free one grants immediately.
func clientTryAcquire(t *testing.T, sub ClientSubstrate) {
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, 2)
	a, b := conns[0], conns[1]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	hold, err := a.Acquire(ctx, "try-me")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.TryAcquire("try-me"); err != nil || ok {
		t.Fatalf("try of a held resource = (%v, %v), want (false, nil)", ok, err)
	}
	if err := a.ReleaseHold(hold); err != nil {
		t.Fatal(err)
	}
	h2, ok, err := b.TryAcquire("try-me")
	if err != nil || !ok {
		t.Fatalf("try of a free resource = (%v, %v), want (true, nil)", ok, err)
	}
	if h2.Fence <= hold.Fence {
		t.Fatalf("try fence %d not above previous %d", h2.Fence, hold.Fence)
	}
	if err := b.ReleaseHold(h2); err != nil {
		t.Fatal(err)
	}
}

// clientNotHeld checks that the lifecycle sentinels survive the wire.
func clientNotHeld(t *testing.T, sub ClientSubstrate) {
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, 1)
	if err := conns[0].Release("never-held"); !errors.Is(err, lockservice.ErrNotHeld) {
		t.Fatalf("release of never-held resource = %v, want ErrNotHeld", err)
	}
}

// clientLeaseExpiry is the lease battery over the wire: a stuck dialed
// client's hold is reclaimed, the next client gets a higher fence, and
// the late release observes ErrLeaseExpired.
func clientLeaseExpiry(t *testing.T, sub ClientSubstrate) {
	conns := sub.start(t, lockservice.Config{
		Shards:        1,
		Lease:         150 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	}, 2, 2)
	a, b := conns[0], conns[1]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hold, err := a.Acquire(ctx, "leased")
	if err != nil {
		t.Fatal(err)
	}
	if hold.Expires.IsZero() {
		t.Fatal("hold carries no lease deadline")
	}
	// A goes silent past its lease; B's acquire succeeds without any
	// release from A.
	second, err := b.Acquire(ctx, "leased")
	if err != nil {
		t.Fatalf("acquire after lease expiry: %v", err)
	}
	if second.Fence <= hold.Fence {
		t.Fatalf("post-expiry fence %d not above expired hold's %d", second.Fence, hold.Fence)
	}
	if err := a.ReleaseHold(hold); !errors.Is(err, lockservice.ErrLeaseExpired) {
		t.Fatalf("late release = %v, want ErrLeaseExpired", err)
	}
	if err := b.ReleaseHold(second); err != nil {
		t.Fatal(err)
	}
}

// clientCancelPropagation checks that a canceled Acquire propagates into
// the member's queue and leaks nothing: the canceled client can come
// back and acquire normally once the holder releases.
func clientCancelPropagation(t *testing.T, sub ClientSubstrate) {
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, 2)
	a, b := conns[0], conns[1]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hold, err := a.Acquire(ctx, "queued")
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer shortCancel()
	if _, err := b.Acquire(shortCtx, "queued"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire under held resource = %v, want deadline exceeded", err)
	}
	if err := a.ReleaseHold(hold); err != nil {
		t.Fatal(err)
	}
	// The canceled acquire must not have wedged the member: B acquires
	// and releases cleanly.
	h2, err := b.Acquire(ctx, "queued")
	if err != nil {
		t.Fatalf("reacquire after canceled acquire: %v", err)
	}
	if err := b.ReleaseHold(h2); err != nil {
		t.Fatal(err)
	}
}

// clientDisconnectCleanup checks the crash path: a client that vanishes
// while holding must not park the resource — the member releases the
// holds of a dropped connection.
func clientDisconnectCleanup(t *testing.T, sub ClientSubstrate) {
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, 2)
	a, b := conns[0], conns[1]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := a.Acquire(ctx, "abandoned"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Well before any lease could expire (default 30s), the hold is gone.
	h, err := b.Acquire(ctx, "abandoned")
	if err != nil {
		t.Fatalf("acquire after holder disconnect: %v", err)
	}
	if err := b.ReleaseHold(h); err != nil {
		t.Fatal(err)
	}
}

// clientBackpressure checks the per-connection queue bound: beyond
// MaxClientInflight outstanding requests the member sheds the excess
// with the busy sentinel instead of queueing without bound. The flood
// is one acquire per key, all of the one shard the holder blocks, and it
// comes from a raw connection: a dialed client.Conn never sends it — its
// callers on one shard wait inside the connection, behind a single
// marked acquire, and take up no member queue depth at all.
func clientBackpressure(t *testing.T, sub ClientSubstrate) {
	addr, closeAll, err := sub.Start(lockservice.Config{Shards: 1}, 2)
	if err != nil {
		t.Fatalf("start %s client cluster: %v", sub.Name, err)
	}
	t.Cleanup(closeAll)
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	hold, err := a.Acquire(ctx, "full")
	if err != nil {
		t.Fatal(err)
	}
	const extra = 8
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var flood []byte
	flood = binary.BigEndian.AppendUint32(append(flood, transport.ClientMagic...), transport.ClientVersion)
	for i := 0; i < transport.MaxClientInflight+extra; i++ {
		flood = transport.AppendClientFrame(flood, transport.OpAcquire, uint64(i+1), fmt.Appendf(nil, "full-%d", i))
	}
	if _, err := conn.Write(flood); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := transport.ReadClientHello(br); err != nil {
		t.Fatal(err)
	}
	// Shed answers arrive at once, for exactly the acquires beyond the
	// bound and in the order they were read; queued acquires are never
	// answered.
	for busy := 0; busy < extra; busy++ {
		op, id, payload, err := transport.ReadClientFrame(br)
		if err != nil {
			t.Fatalf("after %d busy rejections: %v", busy, err)
		}
		if op != transport.RespErr || len(payload) == 0 || payload[0] != transport.CodeBusy {
			t.Fatalf("acquire %d answered op %d %q, want a busy rejection", id, op, payload)
		}
		if want := uint64(transport.MaxClientInflight + busy + 1); id != want {
			t.Fatalf("busy rejection %d names acquire %d, want %d", busy, id, want)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if op, id, payload, err := transport.ReadClientFrame(br); err == nil {
		t.Fatalf("after %d busy rejections acquire %d answered op %d %q, want no answer", extra, id, op, payload)
	} else if ne := net.Error(nil); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("reading past the busy rejections: %v, want a read timeout", err)
	}
	_ = conn.Close() // the queued acquires go with the connection
	if err := a.ReleaseHold(hold); err != nil {
		t.Fatal(err)
	}
}

// clientCoalescedFences is the coalescing battery's core check: a
// cohort of waiters parked on ONE key is rotated through the member's
// single slot (the grant regranted locally instead of each waiter
// issuing its own DAG acquire), and every waiter must still see its
// own fence — all distinct, and strictly increasing in grant order.
// Coalescing is an optimization; fencing is the contract it must not
// bend.
func clientCoalescedFences(t *testing.T, sub ClientSubstrate) {
	const waiters, perWaiter = 6, 8
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, waiters)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var mu sync.Mutex
	fences := make([]uint64, 0, waiters*perWaiter) // appended inside the CS
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			for j := 0; j < perWaiter; j++ {
				h, err := c.Acquire(ctx, "coalesced")
				if err != nil {
					t.Errorf("waiter %d acquire: %v", i, err)
					return
				}
				mu.Lock()
				fences = append(fences, h.Fence)
				mu.Unlock()
				if err := c.ReleaseHold(h); err != nil {
					t.Errorf("waiter %d release: %v", i, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if len(fences) != waiters*perWaiter {
		t.Fatalf("grants = %d, want %d", len(fences), waiters*perWaiter)
	}
	seen := make(map[uint64]bool, len(fences))
	for k, f := range fences {
		if seen[f] {
			t.Fatalf("fence %d granted twice", f)
		}
		seen[f] = true
		if k > 0 && f <= fences[k-1] {
			t.Fatalf("grant %d fence %d not above predecessor's %d", k, f, fences[k-1])
		}
	}
}

// clientCoalescedCancelIsolation checks that cancelling one waiter of a
// coalesced cohort cancels only that waiter: the others are neither
// cancelled nor starved, and every survivor still gets a grant.
func clientCoalescedCancelIsolation(t *testing.T, sub ClientSubstrate) {
	const waiters = 4
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, waiters+1)
	holder := conns[waiters]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hold, err := holder.Acquire(ctx, "cohort")
	if err != nil {
		t.Fatal(err)
	}
	// Park the whole cohort behind the holder, one waiter on a doomed
	// context.
	doomedCtx, doom := context.WithCancel(ctx)
	var granted atomic.Int64
	doomed := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			wctx := ctx
			if i == 0 {
				wctx = doomedCtx
			}
			h, err := c.Acquire(wctx, "cohort")
			if i == 0 {
				doomed <- err
				if err == nil {
					_ = c.ReleaseHold(h)
				}
				return
			}
			if err != nil {
				t.Errorf("waiter %d acquire: %v", i, err)
				return
			}
			granted.Add(1)
			if err := c.ReleaseHold(h); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}(i, conns[i])
	}
	time.Sleep(50 * time.Millisecond) // let the cohort queue up
	doom()
	if err := <-doomed; !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed waiter = %v, want context.Canceled", err)
	}
	if err := holder.ReleaseHold(hold); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := granted.Load(); got != waiters-1 {
		t.Fatalf("surviving waiters granted = %d, want %d", got, waiters-1)
	}
}

// clientCoalescedDisconnectIsolation checks the crash variant: a waiter
// whose connection drops mid-coalesce takes only its own claim with it.
// The cohort's other waiters still acquire, and nothing is parked —
// after the survivors drain, a fresh client acquires immediately.
func clientCoalescedDisconnectIsolation(t *testing.T, sub ClientSubstrate) {
	const survivors = 3
	conns := sub.start(t, lockservice.Config{Shards: 1}, 2, survivors+2)
	holder, vanishing := conns[survivors], conns[survivors+1]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hold, err := holder.Acquire(ctx, "dropped")
	if err != nil {
		t.Fatal(err)
	}
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < survivors; i++ {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			h, err := c.Acquire(ctx, "dropped")
			if err != nil {
				t.Errorf("survivor %d acquire: %v", i, err)
				return
			}
			granted.Add(1)
			if err := c.ReleaseHold(h); err != nil {
				t.Errorf("survivor %d release: %v", i, err)
			}
		}(i, conns[i])
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		// This waiter queues with the cohort, then its process "crashes".
		_, _ = vanishing.Acquire(ctx, "dropped")
	}()
	time.Sleep(50 * time.Millisecond) // let the cohort queue up
	if err := vanishing.Close(); err != nil {
		t.Fatal(err)
	}
	<-gone
	if err := holder.ReleaseHold(hold); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := granted.Load(); got != survivors {
		t.Fatalf("survivors granted = %d, want %d", got, survivors)
	}
	// Nothing may be left parked for the vanished waiter: a fresh
	// acquire on the same key completes immediately.
	h, err := holder.Acquire(ctx, "dropped")
	if err != nil {
		t.Fatalf("acquire after disconnected waiter: %v", err)
	}
	if err := holder.ReleaseHold(h); err != nil {
		t.Fatal(err)
	}
}

// startMembers launches a cluster serving clients through every member
// and dials one connection to each of the first conns members.
func (sub ClientSubstrate) startMembers(t *testing.T, cfg lockservice.Config, members, conns int) ([]*client.Conn, func() lockservice.Stats) {
	t.Helper()
	addrs, stats, closeAll, err := sub.StartMembers(cfg, members)
	if err != nil {
		t.Fatalf("start %s client cluster: %v", sub.Name, err)
	}
	t.Cleanup(closeAll)
	out := make([]*client.Conn, conns)
	for i := range out {
		c, err := client.Dial(addrs[i])
		if err != nil {
			t.Fatalf("dial member %d: %v", i+1, err)
		}
		t.Cleanup(func() { _ = c.Close() })
		out[i] = c
	}
	return out, stats
}

// clientRunFences is the fence-run battery's core check. Two
// connections, each to its own member, each carrying a crowd of callers
// on ONE key: inside each connection the key rotates through runs of
// fences the member reserved, with no frame per handoff, and between the
// connections it travels with the token. Whatever the interleaving,
// there is never a second holder, every caller sees its own fence — all
// distinct, strictly increasing in critical-section order across both
// connections — and the members count exactly the fences handed out.
func clientRunFences(t *testing.T, sub ClientSubstrate) {
	const perConn, cycles = 8, 50
	conns, stats := sub.startMembers(t, lockservice.Config{Shards: 1}, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var inCS atomic.Int64
	var lastFence atomic.Uint64 // written only inside the CS
	shared := 0                 // same-run holds seen back to back: proof that runs happened
	var lastExpires time.Time   // both written only inside the CS
	var wg sync.WaitGroup
	for i, c := range conns {
		for j := 0; j < perConn; j++ {
			wg.Add(1)
			go func(i, j int, c *client.Conn) {
				defer wg.Done()
				for k := 0; k < cycles; k++ {
					h, err := c.Acquire(ctx, "hot")
					if err != nil {
						t.Errorf("conn %d caller %d acquire: %v", i, j, err)
						return
					}
					if got := inCS.Add(1); got != 1 {
						t.Errorf("mutual exclusion violated: %d callers in CS", got)
					}
					if prev := lastFence.Load(); h.Fence <= prev {
						t.Errorf("conn %d caller %d fence %d not above previous %d", i, j, h.Fence, prev)
					}
					lastFence.Store(h.Fence)
					if h.Expires.Equal(lastExpires) {
						shared++
					}
					lastExpires = h.Expires
					inCS.Add(-1)
					if err := c.ReleaseHold(h); err != nil {
						t.Errorf("conn %d caller %d release: %v", i, j, err)
						return
					}
				}
			}(i, j, c)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	const total = 2 * perConn * cycles
	if st := stats(); st.Grants != total || st.Releases != total || st.Expired != 0 {
		t.Fatalf("members count %d grants, %d releases, %d expired; want %d, %d, 0", st.Grants, st.Releases, st.Expired, total, total)
	}
	if shared == 0 {
		t.Fatal("no two consecutive holds shared a lease deadline: no run was ever handed round, the battery checked nothing new")
	}
}

// clientRunLeaseExpiry puts a caller that will not let go on a fence in
// the middle of a run. Held past half of the run's lease but released in
// time, the fence is the run's last to be handed out: the lane stops
// there, and the siblings' next hold comes from a grant of its own.
// Held past the deadline, the run is reclaimed by the member as the one
// hold it is: the other connection's next grant carries a fence above
// it, and the late release learns that the lease expired.
func clientRunLeaseExpiry(t *testing.T, sub ClientSubstrate) {
	const lease = 400 * time.Millisecond
	conns, _ := sub.startMembers(t, lockservice.Config{
		Shards:        1,
		Lease:         lease,
		SweepInterval: 10 * time.Millisecond,
	}, 2, 2)
	crowd, other := conns[0], conns[1]
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// mu guards the bookkeeping: past its deadline the sitter shares the
	// critical section with whoever the member admits next, by design.
	var mu sync.Mutex
	var prev client.Hold // the crowd's previous hold
	phase := 0           // 0: rotate; 1: sit past half the lease; 2: sit past the deadline; 3: done
	sat := make(map[int]client.Hold)
	after := make(map[int]client.Hold) // the crowd's first hold after each sit
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := crowd.Acquire(ctx, "hot")
				if err != nil {
					t.Errorf("caller %d acquire: %v", j, err)
					return
				}
				mu.Lock()
				// Caller 0 sits, once per phase, on a hold that is not the
				// first of its run: it shares the previous hold's deadline.
				sit := 0
				if j == 0 && phase < 2 && h.Expires.Equal(prev.Expires) {
					phase++
					sit = phase
					sat[sit] = h
				} else if _, seen := after[phase]; phase > 0 && !seen && j != 0 {
					after[phase] = h
				}
				prev = h
				mu.Unlock()
				switch sit {
				case 1:
					time.Sleep(time.Until(h.Expires) - lease/4) // past half of what remained, well before the deadline
				case 2:
					time.Sleep(time.Until(h.Expires) + lease/2) // long past it
				}
				err = crowd.ReleaseHold(h)
				switch {
				case sit == 2 && !errors.Is(err, lockservice.ErrLeaseExpired):
					t.Errorf("release of a fence held past the run's deadline = %v, want ErrLeaseExpired", err)
				case sit != 2 && err != nil:
					t.Errorf("caller %d release (sit %d): %v", j, sit, err)
				}
				if sit == 2 {
					mu.Lock()
					phase = 3
					mu.Unlock()
				}
			}
		}(j)
	}
	// The other connection keeps asking throughout: the hold it gets while
	// the sitter overstays is the one that fences the sitter off.
	var fencedOff uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h, err := other.Acquire(ctx, "hot")
			if err != nil {
				t.Errorf("other connection acquire: %v", err)
				return
			}
			mu.Lock()
			if s, ok := sat[2]; ok && fencedOff == 0 && time.Now().After(s.Expires) {
				fencedOff = h.Fence
			}
			mu.Unlock()
			if err := other.ReleaseHold(h); err != nil && !errors.Is(err, lockservice.ErrLeaseExpired) {
				t.Errorf("other connection release: %v", err)
				return
			}
		}
	}()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		done := phase == 3 && fencedOff != 0
		mu.Unlock()
		if done || t.Failed() {
			break
		}
		if time.Now().After(deadline) {
			t.Error("the sitter never found itself inside a run, or nobody was granted after it overstayed")
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if s, a := sat[1], after[1]; !a.Expires.After(s.Expires) || a.Fence <= s.Fence {
		t.Errorf("after a fence held past half the lease (fence %d, deadline %v) the crowd's next hold is fence %d, deadline %v: the run was not ended there",
			s.Fence, s.Expires, a.Fence, a.Expires)
	}
	if s := sat[2]; fencedOff <= s.Fence {
		t.Errorf("the other connection was granted fence %d after the sitter's (%d) expired", fencedOff, s.Fence)
	}
}

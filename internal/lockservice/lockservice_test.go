package lockservice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		if err := s.Err(); err != nil {
			t.Errorf("protocol error after run: %v", err)
		}
	})
	return s
}

func TestAcquireReleaseSingleResource(t *testing.T) {
	s := newService(t, Config{Shards: 4, Nodes: 3})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := s.Acquire(ctx, "orders"); err != nil {
			t.Fatal(err)
		}
		if err := s.Release("orders"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Grants != 5 {
		t.Fatalf("grants = %d, want 5", st.Grants)
	}
}

func TestKeyShardStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 13} {
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("res-%d", i)
			got := KeyShard(key, shards)
			if got < 0 || got >= shards {
				t.Fatalf("KeyShard(%q, %d) = %d, out of range", key, shards, got)
			}
			if again := KeyShard(key, shards); again != got {
				t.Fatalf("KeyShard(%q, %d) unstable: %d then %d", key, shards, got, again)
			}
		}
	}
	// Golden values pin the hash function: a silent change would reshuffle
	// every deployed key→shard assignment.
	if got := KeyShard("orders", 8); got != 4 {
		t.Fatalf("KeyShard(orders, 8) = %d, want 4", got)
	}
	if got := KeyShard("users", 8); got != 3 {
		t.Fatalf("KeyShard(users, 8) = %d, want 3", got)
	}
}

func TestServiceRoutesEachShardToItsHome(t *testing.T) {
	s := newService(t, Config{Shards: 6, Nodes: 4})
	for i, sh := range s.shards {
		want := mutex.ID(1 + i%4)
		if sh.home != want {
			t.Fatalf("shard %d home = %d, want %d", i, sh.home, want)
		}
	}
}

// TestMutualExclusionAcrossNodes has every member node hammer a shared,
// unsynchronized counter per resource; only the lock service makes the
// increments safe. Run under -race this is the core safety test.
func TestMutualExclusionAcrossNodes(t *testing.T) {
	const (
		nodes     = 4
		resources = 16
		perWorker = 30
	)
	s := newService(t, Config{Shards: 8, Nodes: nodes})
	counters := make([]int, resources)
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 1; n <= nodes; n++ {
		c, err := s.On(mutex.ID(n))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rng := rand.New(rand.NewSource(int64(c.ID())))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(resources)
				key := fmt.Sprintf("res-%d", k)
				if _, err := c.Acquire(ctx, key); err != nil {
					errs <- err
					return
				}
				counters[k]++ // critical section: unsynchronized Go state
				if err := c.Release(key); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counters {
		total += c
	}
	if want := nodes * perWorker; total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	if st := s.Stats(); st.Grants != int64(nodes*perWorker) {
		t.Fatalf("grants = %d, want %d", st.Grants, nodes*perWorker)
	}
}

// TestCrossShardAcquiresDoNotBlock holds a resource on one shard and
// verifies a resource on a different shard is still acquirable.
func TestCrossShardAcquiresDoNotBlock(t *testing.T) {
	s := newService(t, Config{Shards: 8, Nodes: 2})
	// Find two keys on different shards.
	a := "res-0"
	b := ""
	for i := 1; ; i++ {
		b = fmt.Sprintf("res-%d", i)
		if s.ShardFor(b) != s.ShardFor(a) {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Acquire(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(ctx, b); err != nil {
		t.Fatalf("cross-shard acquire blocked: %v", err)
	}
	if err := s.Release(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
}

// TestSameShardSerializes verifies two resources that collide in one
// shard share that shard's token: the second acquire waits for the first
// release.
func TestSameShardSerializes(t *testing.T) {
	s := newService(t, Config{Shards: 1, Nodes: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		c, err := s.On(2)
		if err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		if _, err := c.Acquire(ctx, "b"); err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		close(acquired)
		_ = c.Release("b")
	}()
	select {
	case <-acquired:
		t.Fatal("same-shard acquire succeeded while token was held")
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("same-shard acquire never completed after release")
	}
}

// TestTimedOutAcquireRecovers checks the no-cancellation recovery path:
// an Acquire that fails on its deadline leaves an outstanding request,
// and when the token eventually arrives the service must release it in
// the background so the shard (and the slot) become usable again.
func TestTimedOutAcquireRecovers(t *testing.T) {
	s := newService(t, Config{Shards: 1, Nodes: 2})
	ctx := context.Background()
	c2, err := s.On(2)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 holds the single shard's token...
	if _, err := c2.Acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// ...so a service-level acquire (node 1) times out waiting for it.
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := s.Acquire(tctx, "b"); err == nil {
		t.Fatal("acquire succeeded while token was held")
	}
	// Once node 2 releases, the orphaned grant lands at node 1, the
	// reaper passes the token back, and both nodes can lock again.
	if err := c2.Release("a"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rctx, rcancel := context.WithTimeout(ctx, 100*time.Millisecond)
		_, err := s.Acquire(rctx, "b")
		rcancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never recovered after timed-out acquire: %v", err)
		}
	}
	if err := s.Release("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Acquire(ctx, "a"); err != nil {
		t.Fatalf("shard wedged for other nodes after recovery: %v", err)
	}
	if err := c2.Release("a"); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseErrors(t *testing.T) {
	s := newService(t, Config{Shards: 2, Nodes: 2})
	ctx := context.Background()
	if err := s.Release("never-held"); err == nil {
		t.Fatal("release of unheld resource succeeded")
	}
	if _, err := s.Acquire(ctx, ""); err == nil {
		t.Fatal("acquire of empty resource name succeeded")
	}
	if _, err := s.Acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// Find a key on the same shard with the same home node as "a".
	other := ""
	for i := 0; ; i++ {
		other = fmt.Sprintf("k-%d", i)
		if s.ShardFor(other) == s.ShardFor("a") {
			break
		}
	}
	if err := s.Release(other); err == nil {
		t.Fatal("release of wrong resource on held slot succeeded")
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
}

func TestOnRejectsUnknownNode(t *testing.T) {
	s := newService(t, Config{Shards: 2, Nodes: 3})
	for _, id := range []mutex.ID{0, -1, 4} {
		if _, err := s.On(id); err == nil {
			t.Fatalf("On(%d) accepted", id)
		}
	}
}

func TestStatsAggregates(t *testing.T) {
	s := newService(t, Config{Shards: 4, Nodes: 2})
	ctx := context.Background()
	const ops = 40
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("res-%d", i%10)
		if _, err := s.Acquire(ctx, key); err != nil {
			t.Fatal(err)
		}
		if err := s.Release(key); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Grants != ops {
		t.Fatalf("grants = %d, want %d", st.Grants, ops)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats = %d entries, want 4", len(st.PerShard))
	}
	var sum int64
	for _, ss := range st.PerShard {
		sum += ss.Grants
	}
	if sum != st.Grants {
		t.Fatalf("per-shard grants sum %d != total %d", sum, st.Grants)
	}
	if st.Wait.Count != ops {
		t.Fatalf("wait samples = %d, want %d", st.Wait.Count, ops)
	}
	if st.Messages != s.Messages() {
		t.Fatalf("stats messages %d != service messages %d", st.Messages, s.Messages())
	}
}

// TestServiceWaitWeighsShardsByGrantCount checks the service-wide wait
// summary, the shards' histograms summed bucket by bucket: a hot shard
// with a million grants dominates a cold one in exact proportion to the
// grants each saw, with nothing sampled away.
func TestServiceWaitWeighsShardsByGrantCount(t *testing.T) {
	s := newService(t, Config{Shards: 2, Nodes: 2})
	const hot, cold = 1_000_000, 8192
	for i := 0; i < hot; i++ {
		s.shards[0].noteGrant(0, 0, 100*time.Millisecond) // slow shard
	}
	for i := 0; i < cold; i++ {
		s.shards[1].noteGrant(0, 0, time.Millisecond) // fast shard
	}
	st := s.Stats()
	if st.Wait.Count != hot+cold {
		t.Fatalf("wait count = %d, want %d", st.Wait.Count, hot+cold)
	}
	// Grant-weighted truth: (1e6*100 + 8192*1) / 1008192 ≈ 99.2.
	want := (hot*100.0 + cold*1.0) / (hot + cold)
	if math.Abs(st.Wait.Mean-want) > want*0.001 {
		t.Fatalf("wait mean = %.4f ms, want %.4f within 0.1%%", st.Wait.Mean, want)
	}
	if st.Wait.Min != 1 || st.Wait.Max != 100 {
		t.Fatalf("wait min/max = %v/%v ms, want exact 1/100", st.Wait.Min, st.Wait.Max)
	}
	// 100 ms lies in the bucket [2^26, 2^27) ns; its bound is the p99.
	if p99 := float64(1<<27-1) / 1e6; st.Wait.P99 != p99 {
		t.Fatalf("wait p99 = %v ms, want the bucket bound %v", st.Wait.P99, p99)
	}
	for i, n := range []int{hot, cold} {
		if got := st.PerShard[i].Wait.Count; got != n {
			t.Fatalf("shard %d wait count = %d, want %d", i, got, n)
		}
	}
}

// TestShardingDeterministicOnSimulator replays a multi-resource trace on
// the deterministic simulator: keys are partitioned by KeyShard exactly as
// the live service partitions them, each shard's requests run on its own
// sim cluster, and the per-shard entry counts must match the partition —
// the reproducible counterpart of the live goroutine path.
func TestShardingDeterministicOnSimulator(t *testing.T) {
	const (
		shards    = 4
		nodes     = 3
		resources = 24
		ops       = 96
	)
	// Partition a deterministic key sequence the way the service would.
	perShard := make([][]mutex.ID, shards) // requesting node per op, in order
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("res-%d", rng.Intn(resources))
		sh := KeyShard(key, shards)
		node := mutex.ID(1 + rng.Intn(nodes))
		perShard[sh] = append(perShard[sh], node)
	}
	for sh, reqs := range perShard {
		tree := topology.Star(nodes)
		home := mutex.ID(1 + sh%nodes)
		cfg := mutex.Config{IDs: tree.IDs(), Holder: home, Parent: tree.ParentsToward(home)}
		c, err := cluster.New(core.Builder, cfg, cluster.WithCSTime(sim.Hop/2))
		if err != nil {
			t.Fatal(err)
		}
		// Closed-loop replay: each op issues once its node's previous op
		// released (one outstanding request per node, per the paper).
		next := make(map[mutex.ID]int)
		pending := make(map[mutex.ID][]int)
		for i, node := range reqs {
			pending[node] = append(pending[node], i)
		}
		for node := range pending {
			c.RequestAt(0, node)
			next[node] = 1
		}
		c.OnRelease(func(id mutex.ID, at sim.Time) {
			if next[id] < len(pending[id]) {
				next[id]++
				c.RequestAt(at+sim.Hop, id)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatalf("shard %d: %v", sh, err)
		}
		if got, want := c.Entries(), len(reqs); got != want {
			t.Fatalf("shard %d entries = %d, want %d", sh, got, want)
		}
	}
}

// newTCPService builds one distributed lock service spread over members
// TCP "processes" inside this test binary: each member gets its own
// TCPTransport (own listener, own Service instance), and the address book
// is exchanged the way real processes would out of band.
func newTCPService(t *testing.T, shards, members int) []*Service {
	t.Helper()
	services, err := NewTCPCluster(Config{Shards: shards}, members)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, svc := range services {
			svc.Close()
		}
	})
	return services
}

// TestTCPServiceDisjointAndContendedKeys is the acceptance test for the
// distributed lock service: the same shard code runs over TCP, member
// processes acquire disjoint keys concurrently and contended keys
// safely, with unsynchronized Go state as the witness.
func TestTCPServiceDisjointAndContendedKeys(t *testing.T) {
	const members = 3
	services := newTCPService(t, 4, members)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: disjoint keys — every member locks its own key space; no
	// cross-member contention, all proceed concurrently.
	var wg sync.WaitGroup
	for m, svc := range services {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				key := fmt.Sprintf("member-%d-key-%d", m, j)
				if _, err := svc.Acquire(ctx, key); err != nil {
					t.Errorf("member %d acquire %q: %v", m+1, key, err)
					return
				}
				if err := svc.Release(key); err != nil {
					t.Errorf("member %d release %q: %v", m+1, key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Phase 2: contended keys — all members hammer the same small key
	// set; the per-key counters are unsynchronized Go maps made safe only
	// by the distributed lock.
	counters := make([]int, 4)
	const perMember = 10
	for m := range services {
		svc := services[m]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perMember; j++ {
				key := fmt.Sprintf("hot-%d", j%len(counters))
				if _, err := svc.Acquire(ctx, key); err != nil {
					t.Errorf("member %d acquire %q: %v", m+1, key, err)
					return
				}
				counters[j%len(counters)]++
				if err := svc.Release(key); err != nil {
					t.Errorf("member %d release %q: %v", m+1, key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	total := 0
	for _, c := range counters {
		total += c
	}
	if want := members * perMember; total != want {
		t.Fatalf("contended counter total = %d, want %d", total, want)
	}
	for m, svc := range services {
		if err := svc.Err(); err != nil {
			t.Fatalf("member %d: %v", m+1, err)
		}
		if st := svc.Stats(); st.Grants == 0 {
			t.Fatalf("member %d recorded no grants", m+1)
		}
	}
	// Token traffic really crossed sockets: someone sent protocol frames.
	var msgs int64
	for _, svc := range services {
		msgs += svc.Messages()
	}
	if msgs == 0 {
		t.Fatal("no TCP protocol messages recorded")
	}
}

// TestTCPServiceOnRemoteMemberFails: a member hosted by another process
// is rejected cleanly, not deadlocked or crashed.
func TestTCPServiceOnRemoteMemberFails(t *testing.T) {
	services := newTCPService(t, 2, 2)
	svc1 := services[0]
	c, err := svc1.On(2) // valid member id, but hosted by "process" 2
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Acquire(ctx, "some-key"); err == nil {
		t.Fatal("acquire through a remotely hosted member must fail")
	} else if ctx.Err() != nil {
		t.Fatalf("remote-member acquire hung instead of failing fast: %v", err)
	}
}

// TestLocalTransportIsDefault: zero-config service still runs in process.
func TestLocalTransportIsDefault(t *testing.T) {
	svc, err := New(Config{Shards: 2, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := svc.Acquire(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Release("k"); err != nil {
		t.Fatal(err)
	}
}

// fakeLink is a no-op runtime.Link for driving a shard without a real
// substrate.
type fakeLink struct {
	in        chan runtime.Envelope
	closeOnce sync.Once
}

func (l *fakeLink) Send(to mutex.ID, m mutex.Message) error { return nil }
func (l *fakeLink) Recv() (runtime.Envelope, bool)          { e, ok := <-l.in; return e, ok }
func (l *fakeLink) Close()                                  { l.closeOnce.Do(func() { close(l.in) }) }

// grantNode grants every Request immediately while idle.
type grantNode struct {
	id   mutex.ID
	env  mutex.Env
	inCS bool
}

func (n *grantNode) ID() mutex.ID { return n.id }
func (n *grantNode) Request() error {
	if n.inCS {
		return mutex.ErrOutstanding
	}
	n.inCS = true
	n.env.Granted(0)
	return nil
}
func (n *grantNode) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	return nil
}
func (n *grantNode) Deliver(mutex.ID, mutex.Message) error { return nil }
func (n *grantNode) Storage() mutex.Storage                { return mutex.Storage{} }

// fakeTransport hosts every member on fakeLinks, all sharing one sink
// the test can fire at will.
type fakeTransport struct{ sink *runtime.ErrorSink }

type fakeCluster struct {
	nodes map[mutex.ID]*runtime.Node
	sink  *runtime.ErrorSink
}

func (t *fakeTransport) StartShard(index int, b mutex.Builder, cfg mutex.Config) (Cluster, error) {
	c := &fakeCluster{nodes: make(map[mutex.ID]*runtime.Node), sink: t.sink}
	grant := func(id mutex.ID, env mutex.Env, _ mutex.Config) (mutex.Node, error) {
		return &grantNode{id: id, env: env}, nil
	}
	for _, id := range cfg.IDs {
		n, err := runtime.Start(id, grant, cfg, &fakeLink{in: make(chan runtime.Envelope)}, t.sink)
		if err != nil {
			return nil, err
		}
		c.nodes[id] = n
	}
	return c, nil
}

func (t *fakeTransport) Close() {}

func (c *fakeCluster) Session(id mutex.ID) *runtime.Session {
	n, ok := c.nodes[id]
	if !ok {
		return nil
	}
	return n.Session()
}
func (c *fakeCluster) Messages() int64 { return 0 }
func (c *fakeCluster) Err() error      { return c.sink.Err() }
func (c *fakeCluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// TestSlotQueueFailsFastOnClusterError: a caller queued behind a busy
// (node, shard) slot must fail as soon as the cluster dies, not wait out
// its entire context on the semaphore.
func TestSlotQueueFailsFastOnClusterError(t *testing.T) {
	sink := runtime.NewErrorSink()
	svc, err := New(Config{Shards: 1, Nodes: 1, Transport: &fakeTransport{sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Acquire(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// Second acquire through the same slot queues on the semaphore.
	done := make(chan error, 1)
	go func() { _, err := svc.Acquire(ctx, "k2"); done <- err }() // k2 hashes to the only shard
	time.Sleep(20 * time.Millisecond)
	sink.Fail(errors.New("peer crashed"))
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("queued acquire succeeded on a dead cluster")
		}
		if !strings.Contains(err.Error(), "cluster failed") {
			t.Fatalf("queued acquire error = %v, want cluster-failed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire did not fail fast on cluster error")
	}
	if svc.Err() == nil {
		t.Fatal("service Err did not surface the cluster error")
	}
}

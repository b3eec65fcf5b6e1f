package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"dagmutex/internal/runtime"
	"dagmutex/internal/transport"
)

// The shard-lane battery: one connection to a fake member whose hello
// names one shard, callers on different resources of it. Like the lane
// battery, every frame the member reads is asserted.

func shardPipe(t *testing.T) (*Conn, *member) {
	t.Helper()
	return pipeHello(t, 1)
}

// TestShardLaneHandsARunAcrossKeys: callers on three resources of one
// shard share a lane. The second finds the first waiting and orders a
// run for the resource heading the queue; its fences then go to the
// callers in arrival order, each holding its own resource, and the one
// frame that ends the run names the resource the run was ordered for.
func TestShardLaneHandsARunAcrossKeys(t *testing.T) {
	c, m := shardPipe(t)
	a := enter(t, c, "a", 1)
	own := m.expect(transport.OpAcquire, "a")
	b := enter(t, c, "b", 2)
	order := m.expect(transport.OpAcquireRun, "a") // for the caller heading the queue
	d := enter(t, c, "d", 3)

	m.grant(own.id, 10)
	a.holds(10)
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "a"))
	a.released(nil)

	m.run(order.id, 20, 0, 3)
	if h := b.holds(20); h.Resource != "b" {
		t.Fatalf("hold out of the run names %q, want the caller's own %q", h.Resource, "b")
	}
	b.release()
	b.released(nil) // a handoff: no frame
	if h := d.holds(21); h.Resource != "d" {
		t.Fatalf("hold out of the run names %q, want %q", h.Resource, "d")
	}
	d.release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(22, 2, false, "a"))
	d.released(nil)
	c.mu.Lock()
	lanes, inflight := len(c.lanes), len(c.reqs)
	c.mu.Unlock()
	if lanes != 0 || inflight != 0 {
		t.Fatalf("%d lanes and %d requests left behind", lanes, inflight)
	}
}

// TestShardLaneRefusesAReleaseInAnotherCallersName: inside a shard lane,
// releasing a resource the caller does not hold is ErrNotHeld. Naming the
// resource the run was ordered for — by name, or by the fence the member
// files it under — is refused by the connection itself, since the member
// would end the run another caller is inside; any other resource is the
// member's to refuse.
func TestShardLaneRefusesAReleaseInAnotherCallersName(t *testing.T) {
	c, m := shardPipe(t)
	a := enter(t, c, "a", 1)
	own := m.expect(transport.OpAcquire, "a")
	b := enter(t, c, "b", 2)
	order := m.expect(transport.OpAcquireRun, "a")
	m.grant(own.id, 10)
	a.holds(10)
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "a"))
	a.released(nil)
	m.run(order.id, 20, 0, 9)
	b.holds(20)

	for _, h := range []Hold{{Resource: "a"}, {Resource: "a", Fence: 28}} {
		if err := c.ReleaseHold(h); !errors.Is(err, runtime.ErrNotHeld) {
			t.Fatalf("release of %+v while %q holds the run = %v, want ErrNotHeld", h, "b", err)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- c.Release("z") }()
	f := m.expect(transport.OpRelease, releasePayload(0, "z")) // the first frame since: nothing went out for "a"
	m.write(transport.RespErr, f.id, []byte{transport.CodeNotHeld})
	if err := <-errc; !errors.Is(err, runtime.ErrNotHeld) {
		t.Fatalf("release of a resource nobody holds = %v, want ErrNotHeld from the member", err)
	}

	b.release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(28, 1, false, "a"))
	b.released(nil)
}

// TestShardLaneLateReleaseOfAnotherKeysRun: the caller holding the last
// fence of a run ordered for "a" sits on it; the member, its lease gone,
// grants the shard again. The late release of "d" names the old run
// under "a", what the member filed the expiry under, and brings back its
// verdict: the lease expired.
func TestShardLaneLateReleaseOfAnotherKeysRun(t *testing.T) {
	c, m := shardPipe(t)
	a := enter(t, c, "a", 1)
	own := m.expect(transport.OpAcquire, "a")
	b := enter(t, c, "b", 2)
	order := m.expect(transport.OpAcquireRun, "a")
	m.grant(own.id, 10)
	a.holds(10)
	a.release()
	m.ok(transport.OpRelease, releasePayload(10, "a"))
	a.released(nil)
	m.run(order.id, 20, 0, 2)
	b.holds(20)
	d := enter(t, c, "d", 1)
	b.release()
	b.released(nil)
	d.holds(21) // the run's last fence: d sits on it
	e := enter(t, c, "e", 1)
	own = m.expect(transport.OpAcquire, "e")
	f := enter(t, c, "f", 2)
	order = m.expect(transport.OpAcquireRun, "e")

	m.grant(own.id, 30) // the member has moved on: the old run is dead
	e.holds(30)
	e.release()
	m.ok(transport.OpRelease, releasePayload(30, "e"))
	e.released(nil)
	m.run(order.id, 40, 0, 9)
	f.holds(40)

	d.release()
	late := m.expect(transport.OpReleaseRun, releaseRunPayload(21, 2, false, "a"))
	m.write(transport.RespErr, late.id, []byte{transport.CodeLeaseExpired})
	d.released(runtime.ErrLeaseExpired)
	f.release()
	m.ok(transport.OpReleaseRun, releaseRunPayload(48, 1, false, "e"))
	f.released(nil)
}

// TestShardLaneOrdinaryGrantForAnotherKey: the caller whose acquire
// named "a" gives up, and the grant for "a" reaches the caller on "b"
// heading the queue. It holds "b" — the shard is excluded all the same —
// and its release names "a" under the grant's fence, the hold the
// member knows.
func TestShardLaneOrdinaryGrantForAnotherKey(t *testing.T) {
	c, m := shardPipe(t)
	a := enter(t, c, "a", 1)
	own := m.expect(transport.OpAcquire, "a")
	b := enter(t, c, "b", 2)
	order := m.expect(transport.OpAcquireRun, "a")
	go a.cancel()
	if cn := m.expect(transport.OpCancel, ""); cn.id != order.id {
		t.Fatalf("cancel names request %d, want the order %d: it is the newest acquire", cn.id, order.id)
	}
	a.gaveUp()
	m.write(transport.RespErr, order.id, []byte{transport.CodeCanceled})
	m.grant(own.id, 10)
	if h := b.holds(10); h.Resource != "b" {
		t.Fatalf("hold names %q, want %q", h.Resource, "b")
	}
	b.release()
	m.ok(transport.OpRelease, releasePayload(10, "a"))
	b.released(nil)
}

// TestAcquireRunGoesPastTheLanes: a run ordered with AcquireRun is the
// caller's whole — one marked acquire however few wait, answered with
// every fence of the run — and the lane of its shard neither waits for it
// nor hands its fences on. ReleaseRun ends it by its last fence, with
// the count and the more flag it is given.
func TestAcquireRunGoesPastTheLanes(t *testing.T) {
	c, m := shardPipe(t)
	type answer struct {
		h   Hold
		run int
		err error
	}
	got := make(chan answer, 1)
	go func() {
		h, run, err := c.AcquireRun(context.Background(), "a")
		got <- answer{h, run, err}
	}()
	order := m.expect(transport.OpAcquireRun, "a")
	b := enter(t, c, "b", 1) // the lane of the same shard sends its own acquire
	own := m.expect(transport.OpAcquire, "b")
	m.run(order.id, 20, 77, 9)
	if a := <-got; a.err != nil || a.run != 9 || a.h != (Hold{Resource: "a", Fence: 20, Expires: time.Unix(0, 77)}) {
		t.Fatalf("AcquireRun = (%+v, %d, %v), want the run of 9 from fence 20", a.h, a.run, a.err)
	}
	errc := make(chan error, 1)
	go func() { errc <- c.ReleaseRun("a", 28, 5, true) }()
	m.ok(transport.OpReleaseRun, releaseRunPayload(28, 5, true, "a"))
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	m.grant(own.id, 29)
	b.holds(29)
	b.release()
	m.ok(transport.OpRelease, releasePayload(29, "b"))
	b.released(nil)
}

// TestAcquireRunCanceledIsSettledByTheReader: the caller of AcquireRun
// gives up and the cancel goes out. A run that crossed it on the wire is
// ended by the reader, unused and with nothing to follow; a refusal is
// just dropped. Either way the entry is recycled and the connection
// carries on.
func TestAcquireRunCanceledIsSettledByTheReader(t *testing.T) {
	c, m := shardPipe(t)
	for _, raced := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, _, err := c.AcquireRun(ctx, "a")
			errc <- err
		}()
		order := m.expect(transport.OpAcquireRun, "a")
		cancel()
		if cn := m.expect(transport.OpCancel, ""); cn.id != order.id {
			t.Fatalf("cancel names request %d, want %d", cn.id, order.id)
		}
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("AcquireRun = %v, want context.Canceled", err)
		}
		if raced {
			m.run(order.id, 20, 0, 9)
			m.ok(transport.OpReleaseRun, releaseRunPayload(28, 0, false, "a"))
		} else {
			m.write(transport.RespErr, order.id, []byte{transport.CodeCanceled})
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- c.Release("z") }()
	m.ok(transport.OpRelease, releasePayload(0, "z")) // the first frame since: nothing went out for the refusal
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	inflight, free := len(c.reqs), len(c.free)
	c.mu.Unlock()
	if inflight != 0 || free != 1 {
		t.Fatalf("%d requests in flight and %d entries free, want 0 and the one every call reused", inflight, free)
	}
}

// TestLanesFollowTheHello: what a lane is, the member's hello decides.
// Two callers on two resources of one shard share a lane — and the
// second orders a run — under a hello that names shards, which says the
// member grants runs. A hello of 0 shards (a server that grants no runs)
// keeps one lane per resource, where each caller sends its own acquire.
func TestLanesFollowTheHello(t *testing.T) {
	const shards = 4
	other := ""
	for i := 0; other == ""; i++ {
		if k := fmt.Sprintf("k%d", i); transport.ShardOf(k, shards) == transport.ShardOf("a", shards) {
			other = k
		}
	}
	for _, tc := range []struct {
		shards int
		lanes  int
		op     byte // the second caller's frame
	}{
		{0, 2, transport.OpAcquire},
		{shards, 1, transport.OpAcquireRun},
	} {
		t.Run(fmt.Sprintf("shards=%d,runs=%v", tc.shards, tc.shards > 0), func(t *testing.T) {
			c, m := pipeHello(t, tc.shards)
			enter(t, c, "a", 1)
			m.expect(transport.OpAcquire, "a")
			n := 1
			if tc.lanes == 1 {
				n = 2
			}
			enter(t, c, other, n)
			f := m.read()
			c.mu.Lock()
			lanes := len(c.lanes)
			c.mu.Unlock()
			if f.op != tc.op || lanes != tc.lanes {
				t.Fatalf("second caller sent op %d and the connection keeps %d lanes, want op %d and %d", f.op, lanes, tc.op, tc.lanes)
			}
		})
	}
}

// TestDialRefusesABadHello: a dial ends in an error, never a connection
// or a panic, unless the server answers the handshake with a
// well-formed hello — and a server that says nothing holds the dial no
// longer than its context.
func TestDialRefusesABadHello(t *testing.T) {
	good := transport.AppendClientHello(nil, 8)
	for _, tc := range []struct {
		name  string
		hello []byte
		ok    bool
	}{
		{"good", good, true},
		{"short", good[:5], false},
		{"hang-up", nil, false},
		{"garbage", []byte("HTTP/1.1 400"), false},
		{"absurd-shards", append([]byte(transport.ClientMagic), 0xff, 0xff, 0xff, 0xff), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, func(conn net.Conn) {
				if len(tc.hello) > 0 {
					_, _ = conn.Write(tc.hello)
				}
			})
			c, err := Dial(addr)
			if tc.ok != (err == nil) {
				t.Fatalf("Dial = %v, want success %v", err, tc.ok)
			}
			if err == nil {
				defer c.Close()
				if c.Shards() != 8 {
					t.Fatalf("hello of 8 shards read as %d", c.Shards())
				}
			}
		})
	}
	t.Run("silent", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		addr := fakeServer(t, func(net.Conn) { <-release })
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := DialContext(ctx, addr); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Dial of a server that sends no hello = %v, want the context's deadline", err)
		}
	})
	t.Run("silent-plain-dial", func(t *testing.T) {
		defer func(d time.Duration) { helloTimeout = d }(helloTimeout)
		helloTimeout = 100 * time.Millisecond
		release := make(chan struct{})
		defer close(release)
		addr := fakeServer(t, func(net.Conn) { <-release })
		if _, err := Dial(addr); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Dial of a server that sends no hello = %v, want the hello timeout", err)
		}
	})
}

// fakeServer accepts one connection, reads its handshake, and hands the
// connection to serve, closing it once serve returns.
func fakeServer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hs [8]byte
		if _, err := io.ReadFull(conn, hs[:]); err == nil {
			serve(conn)
		}
	}()
	return ln.Addr().String()
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/core"
	"dagmutex/internal/gateway"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// A layer probe drives one layer alone through its public API for a fixed
// number of operations and reports the mean cost of one. The probes are
// the same whatever workload they are printed beside; a change to one
// layer should move its probe and, by the predictions in README.md, the
// workloads that have that layer on their path.

// probe is one layer probe; run performs n operations (after its own
// set-up and a short warm-up) and returns how long they took.
type probe struct {
	name string
	// perOp is the unit divisor: 1 for ns, 1e3 for µs.
	perOp float64
	n     int
	run   func(n int) (time.Duration, error)
}

var probes = []probe{
	{"probe.core_step_ns", 1, 300000, probeCoreStep},
	{"probe.dagcodec_encode_ns", 1, 2000000, probeCodecEncode},
	{"probe.dagcodec_decode_ns", 1, 2000000, probeCodecDecode},
	{"probe.clientframe_encode_ns", 1, 2000000, probeFrameEncode},
	{"probe.clientframe_decode_ns", 1, 1000000, probeFrameDecode},
	{"probe.local_handoff_us", 1e3, 20000, probeLocalHandoff},
	{"probe.tcp_handoff_us", 1e3, 5000, probeTCPHandoff},
	{"probe.slot_uncontended_ns", 1, 200000, probeSlot},
	{"probe.client_echo_us", 1e3, 5000, probeClientEcho},
	{"probe.gateway_echo_us", 1e3, 3000, probeGatewayEcho},
	{"probe.vclock_event_ns", 1, 500000, probeVclock},
}

// runProbes runs every probe; scale < 1 shrinks the op counts (the smoke
// run of the tests).
func runProbes(scale float64) (map[string]float64, error) {
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		n := int(float64(p.n) * scale)
		if n < 10 {
			n = 10
		}
		d, err := p.run(n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[p.name] = float64(d) / float64(n) / p.perOp
	}
	return out, nil
}

// probeEnv is a bench-owned mutex.Env: sends queue up for the probe loop
// to deliver, grants are counted.
type probeEnv struct {
	id     mutex.ID
	queue  *[]probeMsg
	grants int
}

type probeMsg struct {
	from, to mutex.ID
	m        mutex.Message
}

func (e *probeEnv) Send(to mutex.ID, m mutex.Message) {
	*e.queue = append(*e.queue, probeMsg{e.id, to, m})
}
func (e *probeEnv) Granted(uint64) { e.grants++ }

// probeCoreStep times core handler calls (Request, Release, Deliver) on a
// 3-node line 1-2-3: the ends take turns entering, so every request is
// forwarded through the middle and every grant moves the token.
func probeCoreStep(n int) (time.Duration, error) {
	tree := topology.Line(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	var queue []probeMsg
	nodes := make(map[mutex.ID]*core.Node)
	envs := make(map[mutex.ID]*probeEnv)
	for _, id := range cfg.IDs {
		envs[id] = &probeEnv{id: id, queue: &queue}
		node, err := core.New(id, envs[id], cfg)
		if err != nil {
			return 0, err
		}
		nodes[id] = node
	}
	steps, head := 0, 0
	cycle := func(id mutex.ID) error {
		want := envs[id].grants + 1
		if err := nodes[id].Request(); err != nil {
			return err
		}
		steps++
		for envs[id].grants < want {
			if head == len(queue) {
				return fmt.Errorf("node %d starved", id)
			}
			msg := queue[head]
			head++
			if err := nodes[msg.to].Deliver(msg.from, msg.m); err != nil {
				return err
			}
			steps++
		}
		if head == len(queue) {
			queue, head = queue[:0], 0
		}
		steps++
		return nodes[id].Release()
	}
	for i := 0; i < 100; i++ { // warm-up
		if err := cycle(mutex.ID(1 + 2*(i%2))); err != nil {
			return 0, err
		}
	}
	steps = 0
	start := time.Now()
	for i := 0; steps < n; i++ {
		if err := cycle(mutex.ID(1 + 2*(i%2))); err != nil {
			return 0, err
		}
	}
	// Report per step actually taken (the last cycle may overshoot n).
	return time.Since(start) * time.Duration(n) / time.Duration(steps), nil
}

var probeMsgs = []mutex.Message{
	core.Request{From: 3, Origin: 7, Epoch: 2, Hops: 1},
	core.Privilege{Generation: 123456789, Epoch: 2, Requesting: true, Hops: 2},
}

func probeCodecEncode(n int) (time.Duration, error) {
	var codec transport.DAGCodec
	buf := make([]byte, 0, 64)
	start := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if buf, err = codec.AppendEncode(buf[:0], probeMsgs[i&1]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func probeCodecDecode(n int) (time.Duration, error) {
	var codec transport.DAGCodec
	var frames [2][]byte
	for i, m := range probeMsgs {
		b, err := codec.Encode(m)
		if err != nil {
			return 0, err
		}
		frames[i] = b
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := codec.Decode(frames[i&1]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

var probePayload = []byte("res-17")

func probeFrameEncode(n int) (time.Duration, error) {
	buf := make([]byte, 0, 64)
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = transport.AppendClientFrame(buf[:0], transport.OpAcquire, uint64(i), probePayload)
	}
	_ = buf
	return time.Since(start), nil
}

func probeFrameDecode(n int) (time.Duration, error) {
	frame := transport.AppendClientFrame(nil, transport.OpAcquire, 42, probePayload)
	r := bytes.NewReader(frame)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.Reset(frame)
		if _, _, _, err := transport.ReadClientFrame(r); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// handoff ping-pongs the token between two sessions from one goroutine:
// each acquire on the other node costs a REQUEST there and a PRIVILEGE
// back, with nobody else in the way.
func handoff(a, b *transport.Session, n int) (time.Duration, error) {
	ctx := context.Background()
	turn := func(i int) error {
		s := a
		if i&1 == 1 {
			s = b
		}
		if _, err := s.Acquire(ctx); err != nil {
			return err
		}
		return s.Release()
	}
	for i := 0; i < 200; i++ {
		if err := turn(i); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := turn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func twoNodes() mutex.Config {
	tree := topology.Line(2)
	return mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
}

func probeLocalHandoff(n int) (time.Duration, error) {
	cl, err := transport.NewLocal(core.Builder, twoNodes())
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	return handoff(cl.Session(1), cl.Session(2), n)
}

func probeTCPHandoff(n int) (time.Duration, error) {
	cl, err := transport.NewTCPCluster(core.Builder, twoNodes(), transport.DAGCodec{})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	return handoff(cl.Session(1), cl.Session(2), n)
}

// probeSlot is one member, one shard, one caller: the lock service's slot
// path with the token always at home.
func probeSlot(n int) (time.Duration, error) {
	svc, err := lockservice.New(lockservice.Config{Shards: 1, Nodes: 1})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	ctx := context.Background()
	cycle := func() error {
		h, err := svc.Acquire(ctx, "res-0")
		if err != nil {
			return err
		}
		return svc.ReleaseHold(h)
	}
	for i := 0; i < 1000; i++ {
		if err := cycle(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := cycle(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// noopBackend grants at once: what remains is the client protocol itself.
type noopBackend struct{}

func (noopBackend) Acquire(context.Context, string) (uint64, time.Time, error) {
	return 1, time.Time{}, nil
}
func (noopBackend) TryAcquire(string) (uint64, time.Time, bool, error) {
	return 1, time.Time{}, true, nil
}
func (noopBackend) Release(string, uint64) error { return nil }

// echo times acquire round trips on one dialed connection, one at a time.
func echo(addr string, n int) (time.Duration, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := c.Acquire(ctx, "res-0"); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Acquire(ctx, "res-0"); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func probeClientEcho(n int) (time.Duration, error) {
	l, err := transport.NewClientGateway("", noopBackend{})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return echo(l.Addr(), n)
}

func probeGatewayEcho(n int) (time.Duration, error) {
	l, err := transport.NewClientGateway("", noopBackend{})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	gw, err := gateway.New(gateway.Config{Members: []string{l.Addr()}})
	if err != nil {
		return 0, err
	}
	defer gw.Close()
	return echo(gw.Addr(), n)
}

// probeVclock schedules n timer events on a virtual clock, in batches the
// size of a busy simulation's pending set, and fires them.
func probeVclock(n int) (time.Duration, error) {
	const batch = 1000
	v := vclock.NewVirtual()
	fired := 0
	fn := func() { fired++ }
	start := time.Now()
	for done := 0; done < n; done += batch {
		for i := 0; i < batch; i++ {
			v.AfterFunc(time.Duration(1+i%97)*time.Microsecond, fn)
		}
		v.Advance(time.Millisecond)
	}
	if fired < n {
		return 0, fmt.Errorf("fired %d of %d events", fired, n)
	}
	return time.Since(start) * time.Duration(n) / time.Duration(fired), nil
}

package failure

import (
	"sync"
	"testing"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// collect accumulates verdicts thread-safely.
type collect struct {
	mu   sync.Mutex
	down []mutex.ID
	up   []mutex.ID
}

func (c *collect) onDown(p mutex.ID) { c.mu.Lock(); c.down = append(c.down, p); c.mu.Unlock() }
func (c *collect) onUp(p mutex.ID)   { c.mu.Lock(); c.up = append(c.up, p); c.mu.Unlock() }
func (c *collect) snapshot() (down, up []mutex.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]mutex.ID(nil), c.down...), append([]mutex.ID(nil), c.up...)
}

// The detector tests run on a virtual clock: suspicion windows pass via
// Advance instead of wall-clock sleeps, so verdict timing is exact — a
// peer goes down at the first tick past the window, not "eventually".

// TestDetectorSuspectsSilentPeer: a peer that never speaks is declared
// down after the suspicion window; a chatty one is not.
func TestDetectorSuspectsSilentPeer(t *testing.T) {
	v := vclock.NewVirtual()
	var c collect
	d := NewDetector(1, []mutex.ID{2, 3}, func(mutex.ID, mutex.Message) error { return nil },
		Config{Heartbeat: 5 * time.Millisecond, SuspectAfter: 25 * time.Millisecond, Clock: v})
	d.OnDown(c.onDown)
	d.Start()
	defer d.Stop()

	// Node 2 keeps talking; node 3 is silent. Ticks land at 5ms
	// multiples, so the window (last tick with now-lastSeen <= 25ms) ends
	// exactly at t=25ms and the down verdict fires on the t=30ms tick.
	for i := 0; i < 5; i++ {
		v.Advance(5 * time.Millisecond)
		d.Inbound(2, Heartbeat{})
	}
	if down, _ := c.snapshot(); len(down) != 0 {
		t.Fatalf("down verdicts inside the window: %v", down)
	}
	v.Advance(5 * time.Millisecond)
	down, _ := c.snapshot()
	if len(down) != 1 || down[0] != 3 {
		t.Fatalf("down verdicts = %v, want [3]", down)
	}
	if got := d.Down(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Down() = %v, want [3]", got)
	}
}

// TestDetectorRevivesOnTraffic: a down peer that speaks again gets an up
// verdict and leaves the down set.
func TestDetectorRevivesOnTraffic(t *testing.T) {
	v := vclock.NewVirtual()
	var c collect
	d := NewDetector(1, []mutex.ID{2}, func(mutex.ID, mutex.Message) error { return nil },
		Config{Heartbeat: 5 * time.Millisecond, SuspectAfter: 20 * time.Millisecond, Clock: v})
	d.OnDown(c.onDown)
	d.OnUp(c.onUp)
	d.Start()
	defer d.Stop()

	v.Advance(30 * time.Millisecond)
	if down, _ := c.snapshot(); len(down) != 1 {
		t.Fatalf("down verdicts = %v, want one", down)
	}
	d.Inbound(2, Heartbeat{})
	if _, up := c.snapshot(); len(up) != 1 {
		t.Fatalf("up verdicts = %v, want one", up)
	}
	if got := d.Down(); len(got) != 0 {
		t.Fatalf("Down() = %v after revival, want empty", got)
	}
}

// TestDetectorMarkDownIsImmediate: out-of-band evidence fires without
// waiting out the window — no Advance at all.
func TestDetectorMarkDownIsImmediate(t *testing.T) {
	v := vclock.NewVirtual()
	var c collect
	d := NewDetector(1, []mutex.ID{2}, func(mutex.ID, mutex.Message) error { return nil },
		Config{Heartbeat: time.Hour, SuspectAfter: time.Hour, Clock: v})
	d.OnDown(c.onDown)
	d.Start()
	defer d.Stop()
	d.MarkDown(2)
	down, _ := c.snapshot()
	if len(down) != 1 || down[0] != 2 {
		t.Fatalf("down verdicts = %v, want [2]", down)
	}
	d.MarkDown(2) // idempotent
	down, _ = c.snapshot()
	if len(down) != 1 {
		t.Fatalf("duplicate MarkDown fired again: %v", down)
	}
}

// TestDetectorConsumesOnlyHeartbeats: protocol traffic counts as liveness
// but is not consumed.
func TestDetectorConsumesOnlyHeartbeats(t *testing.T) {
	d := NewDetector(1, []mutex.ID{2}, func(mutex.ID, mutex.Message) error { return nil }, Config{})
	if !d.Inbound(2, Heartbeat{}) {
		t.Fatal("heartbeat not consumed")
	}
	if d.Inbound(2, fakeMsg{}) {
		t.Fatal("protocol message consumed by the detector")
	}
}

type fakeMsg struct{}

func (fakeMsg) Kind() string { return "FAKE" }
func (fakeMsg) Size() int    { return 0 }

// TestDetectorHeartbeatsAllPeers: heartbeats keep flowing to down peers,
// so a healed peer is noticed.
func TestDetectorHeartbeatsAllPeers(t *testing.T) {
	v := vclock.NewVirtual()
	var mu sync.Mutex
	sent := make(map[mutex.ID]int)
	d := NewDetector(1, []mutex.ID{2, 3}, func(to mutex.ID, m mutex.Message) error {
		mu.Lock()
		sent[to]++
		mu.Unlock()
		return nil
	}, Config{Heartbeat: 2 * time.Millisecond, SuspectAfter: 6 * time.Millisecond, Clock: v})
	d.Start()
	defer d.Stop()
	v.Advance(20 * time.Millisecond)
	if got := d.Down(); len(got) != 2 {
		t.Fatalf("Down() = %v, want both peers", got)
	}
	mu.Lock()
	before := sent[2]
	mu.Unlock()
	v.Advance(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if sent[2] != before+5 {
		t.Fatalf("heartbeats to a down peer over 10ms at 2ms cadence = %d, want 5", sent[2]-before)
	}
}

// TestDetectorStopSilencesTicks: after Stop, advancing the clock fires no
// heartbeats and no verdicts.
func TestDetectorStopSilencesTicks(t *testing.T) {
	v := vclock.NewVirtual()
	var mu sync.Mutex
	sends := 0
	var c collect
	d := NewDetector(1, []mutex.ID{2}, func(mutex.ID, mutex.Message) error {
		mu.Lock()
		sends++
		mu.Unlock()
		return nil
	}, Config{Heartbeat: 5 * time.Millisecond, SuspectAfter: 10 * time.Millisecond, Clock: v})
	d.OnDown(c.onDown)
	d.Start()
	d.Stop()
	v.Advance(time.Hour)
	mu.Lock()
	defer mu.Unlock()
	if sends != 0 {
		t.Fatalf("stopped detector sent %d heartbeats", sends)
	}
	if down, _ := c.snapshot(); len(down) != 0 {
		t.Fatalf("stopped detector fired verdicts: %v", down)
	}
}

// TestInjectorVerdicts covers the fault plan's decision table.
func TestInjectorVerdicts(t *testing.T) {
	inj := NewInjector()
	if !inj.Allow(1, 2) {
		t.Fatal("empty plan vetoed traffic")
	}
	var nilInj *Injector
	if !nilInj.Allow(1, 2) {
		t.Fatal("nil injector vetoed traffic")
	}

	inj.Crash(2)
	if inj.Allow(1, 2) || inj.Allow(2, 1) {
		t.Fatal("crashed node still reachable")
	}
	if got := inj.Crashed(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Crashed() = %v, want [2]", got)
	}
	inj.Revive(2)
	if !inj.Allow(1, 2) {
		t.Fatal("revived node unreachable")
	}

	inj.Sever(1, 3)
	if inj.Allow(1, 3) {
		t.Fatal("severed direction delivered")
	}
	if !inj.Allow(3, 1) {
		t.Fatal("one-way severance cut the reverse direction too")
	}
	inj.Restore(1, 3)
	if !inj.Allow(1, 3) {
		t.Fatal("restored link still cut")
	}

	inj.Partition([]mutex.ID{1, 2}, []mutex.ID{3, 4})
	if !inj.Allow(1, 2) || !inj.Allow(3, 4) {
		t.Fatal("intra-group traffic vetoed")
	}
	if inj.Allow(1, 3) || inj.Allow(4, 2) {
		t.Fatal("cross-group traffic delivered")
	}
	if inj.Allow(1, 5) {
		t.Fatal("traffic to an unlisted node delivered under a partition")
	}
	inj.Heal()
	if !inj.Allow(1, 3) || !inj.Allow(1, 5) {
		t.Fatal("healed partition still cutting")
	}
}

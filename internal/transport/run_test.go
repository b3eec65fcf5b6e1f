package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/telemetry"
)

// runRecorder is a backend with the run capability over shards lock
// domains: every run is nine fences from wherever the counter stands, and
// every release is recorded as the backend was told of it.
type runRecorder struct {
	staticBackend
	shards int

	mu       sync.Mutex
	next     uint64
	released []runRelease
}

type runRelease struct {
	last uint64
	used int
	more bool
	run  bool // through ReleaseRun rather than Release
}

func (b *runRecorder) Shards() int { return b.shards }

func (b *runRecorder) AcquireRun(ctx context.Context, resource string) (uint64, time.Time, int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.next + 1
	b.next += 9
	return first, time.Unix(0, 77), 9, nil
}

func (b *runRecorder) ReleaseRun(resource string, last uint64, used int, more bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.released = append(b.released, runRelease{last, used, more, true})
	return nil
}

func (b *runRecorder) Release(resource string, fence uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.released = append(b.released, runRelease{last: fence, used: 1})
	return nil
}

func (b *runRecorder) releases() []runRelease {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]runRelease(nil), b.released...)
}

func releaseRunFrame(id, last uint64, used uint32, flags byte, resource string) []byte {
	p := binary.BigEndian.AppendUint64(nil, last)
	p = binary.BigEndian.AppendUint32(p, used)
	p = append(p, flags)
	return AppendClientFrame(nil, OpReleaseRun, id, append(p, resource...))
}

func mustRead(t *testing.T, br *bufio.Reader, op byte, id uint64) []byte {
	t.Helper()
	gotOp, gotID, payload, err := ReadClientFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if gotOp != op || gotID != id {
		t.Fatalf("read (op %d, id %d, %x), want (op %d, id %d)", gotOp, gotID, payload, op, id)
	}
	return payload
}

// TestRunFramesAgainstACapableBackend pins the three run frames on the
// member side: a marked acquire is answered with the run the backend
// reserved, its release reaches ReleaseRun with the flag decoded, and an
// end-of-run report is believed only as far as this connection's own
// grant goes — used above the run is cut to it, and a fence the
// connection was never granted reports nothing used at all. An unmarked
// acquire of the same backend is answered as it always was.
func TestRunFramesAgainstACapableBackend(t *testing.T) {
	backend := &runRecorder{shards: 1}
	backend.fence = 500
	gw, err := NewClientGateway("", backend)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	reg := telemetry.NewRegistry()
	gw.Register(reg)
	conn, br := rawClient(t, gw)
	write := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	write(AppendClientFrame(nil, OpAcquireRun, 1, []byte("k")))
	p := mustRead(t, br, RespRun, 1)
	if len(p) != 20 || binary.BigEndian.Uint64(p[0:8]) != 1 || binary.BigEndian.Uint64(p[8:16]) != 77 || binary.BigEndian.Uint32(p[16:20]) != 9 {
		t.Fatalf("run answer %x, want first fence 1, deadline 77, 9 fences", p)
	}
	write(releaseRunFrame(2, 9, 1000, ReleaseRunMore, "k"))
	mustRead(t, br, RespOK, 2)

	write(AppendClientFrame(nil, OpAcquireRun, 3, []byte("k")))
	mustRead(t, br, RespRun, 3)
	write(releaseRunFrame(4, 12345, 5, 0, "k")) // not the fence this connection holds "k" under
	mustRead(t, br, RespOK, 4)
	write(releaseRunFrame(5, 18, 4, 0, "k"))
	mustRead(t, br, RespOK, 5)

	write(AppendClientFrame(nil, OpAcquire, 6, []byte("k")))
	if p := mustRead(t, br, RespGrant, 6); binary.BigEndian.Uint64(p[0:8]) != 500 {
		t.Fatalf("ordinary acquire answered %x, want the backend's ordinary fence", p)
	}

	want := []runRelease{{9, 9, true, true}, {12345, 0, false, true}, {18, 4, false, true}}
	got := backend.releases()
	if len(got) != len(want) {
		t.Fatalf("backend saw releases %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release %d reached the backend as %+v, want %+v", i, got[i], want[i])
		}
	}
	if v := scrape(t, reg); v["dagmutex_client_runs_total"] != 2 || v["dagmutex_client_run_fences_reserved_total"] != 18 || v["dagmutex_client_run_fences_used_total"] != 13 {
		t.Fatalf("run counters = %v, want 2 runs, 18 reserved, 9+0+4 used", v)
	}

	// A run frame too short to hold its fixed fields is a corrupted
	// stream: the connection ends, and its one hold goes back.
	write(AppendClientFrame(nil, OpReleaseRun, 7, []byte("short")))
	if _, _, _, err := ReadClientFrame(br); err == nil {
		t.Fatal("the connection survived a truncated run release")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := backend.releases(); len(got) == 4 && got[3] == (runRelease{last: 500, used: 1}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend saw releases %+v, want the dead connection's hold of fence 500 given back", backend.releases())
		}
	}
}

// scrape reads reg's single-sample instruments by name.
func scrape(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(value, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// TestRunFramesAgainstAPlainBackend: a backend with the three methods and
// nothing else — or a run backend naming no lock domains, whose hello
// therefore says 0 — answers a marked acquire like any other, and a run
// release that reaches it anyway is an ordinary release of that fence.
func TestRunFramesAgainstAPlainBackend(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		backend := &runRecorder{}
		backend.fence = 500
		var served ClientBackend = backend
		if wrap {
			served = struct{ ClientBackend }{backend} // only the three methods show
		}
		gw, err := NewClientGateway("", served)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		conn, br := rawClient(t, gw)
		if _, err := conn.Write(AppendClientFrame(nil, OpAcquireRun, 1, []byte("k"))); err != nil {
			t.Fatal(err)
		}
		if p := mustRead(t, br, RespGrant, 1); len(p) != 16 || binary.BigEndian.Uint64(p[0:8]) != 500 {
			t.Fatalf("marked acquire answered %x, want an ordinary grant of fence 500", p)
		}
		if _, err := conn.Write(releaseRunFrame(2, 500, 7, ReleaseRunMore, "k")); err != nil {
			t.Fatal(err)
		}
		mustRead(t, br, RespOK, 2)
		if got := backend.releases(); len(got) != 1 || got[0] != (runRelease{last: 500, used: 1}) {
			t.Fatalf("backend saw releases %+v, want one ordinary release of fence 500", got)
		}
	}
}

// TestOldClientVersionIsRefused: version 1 knows nothing of runs,
// version 2 nothing of the hello, and version 3 reads a 9-byte hello
// where a version 4 member writes 8 bytes. The pair fails at the
// handshake instead.
func TestOldClientVersionIsRefused(t *testing.T) {
	gw, err := NewClientGateway("", &staticBackend{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, version := range []uint32{1, 2, 3} {
		conn, err := net.Dial("tcp", gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(binary.BigEndian.AppendUint32([]byte(ClientMagic), version)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after a version %d handshake: %v, want the member to hang up", version, err)
		}
		_ = conn.Close()
	}
}

// TestClientGatewayOwnsItsConnections: a connection costs the gateway two
// goroutines — the one serving it and its response writer — where it used
// to cost three (one more parked only to watch for Close), and Close,
// which severs the connections itself, leaves none behind.
func TestClientGatewayOwnsItsConnections(t *testing.T) {
	settle := func(want int) int {
		n := goruntime.NumGoroutine()
		for deadline := time.Now().Add(10 * time.Second); n != want && time.Now().Before(deadline); n = goruntime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	start := goruntime.NumGoroutine()
	gw, err := NewClientGateway("", &staticBackend{})
	if err != nil {
		t.Fatal(err)
	}
	idle := settle(start + 1) // the accept loop
	const conns = 64
	for i := 0; i < conns; i++ {
		conn, _ := rawClient(t, gw)
		// One round trip, so the connection is past its handshake and its
		// one worker has come and (being the first) parked.
		if _, err := conn.Write(AppendClientFrame(nil, OpTry, 1, []byte("k"))); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadClientFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.Stats().Conns; got != conns {
		t.Fatalf("%d connections open, want %d", got, conns)
	}
	// Serving goroutine, writer, one parked worker.
	if n := settle(idle + 3*conns); n != idle+3*conns {
		t.Fatalf("%d goroutines for %d connections (%.2f each), want 3 each: server, writer, parked worker", n-idle, conns, float64(n-idle)/conns)
	}
	gw.Close()
	if n := settle(start); n != start {
		t.Fatalf("%d goroutines after Close, %d before the gateway existed", n, start)
	}
}

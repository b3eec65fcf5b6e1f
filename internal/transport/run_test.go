package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"maps"
	"net"
	"runtime/pprof"
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

// TestClientGatewayOwnsItsConnections: a connection costs the gateway
// its serving goroutine, its response writer and the one worker that
// parks after serving a request (it used to cost one more, parked only to
// watch for Close), and Close, which severs the connections itself,
// leaves none behind. It counts this gateway's goroutines alone, from a
// goroutine profile: they carry the profiler label the gateway was
// created under (a goroutine inherits its creator's labels), so whatever
// other tests leave winding down in the process does not count.
func TestClientGatewayOwnsItsConnections(t *testing.T) {
	expect := func(when string, want map[string]int) {
		t.Helper()
		got := gatewayGoroutines(t.Name())
		for deadline := time.Now().Add(10 * time.Second); !maps.Equal(got, want) && time.Now().Before(deadline); got = gatewayGoroutines(t.Name()) {
			time.Sleep(time.Millisecond)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s the gateway runs %v, want %v", when, got, want)
		}
	}
	var gw *ClientGateway
	var err error
	pprof.Do(context.Background(), pprof.Labels("gateway", t.Name()), func(context.Context) {
		gw, err = NewClientGateway("", &staticBackend{})
	})
	if err != nil {
		t.Fatal(err)
	}
	expect("idle,", map[string]int{"accept": 1})
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
	expect("with 64 connections,", map[string]int{"accept": 1, "server": conns, "writer": conns, "worker": conns})
	gw.Close()
	expect("after Close", map[string]int{})
}

// gatewayGoroutines counts, by role, the goroutines that carry the
// profiler label gateway=name: the accept loop, a connection's server,
// its frame writer's drain and its workers; "other" is anything else.
func gatewayGoroutines(name string) map[string]int {
	var b strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
	roles := []struct{ role, frame string }{
		{"worker", ".(*clientConn).worker+"},
		{"writer", ".startFrameWriter.func1+"},
		{"server", ".NewClientGatewayWith.func1.1+"},
		{"accept", ".NewClientGatewayWith.func1+"},
	}
	tag := strconv.Quote("gateway") + ":" + strconv.Quote(name)
	got := map[string]int{}
	// Past its header line, each record of the profile is "<count> @
	// <pcs>", its labels, then one line per frame; blank lines part them.
	_, records, _ := strings.Cut(b.String(), "\n")
	for _, rec := range strings.Split(records, "\n\n") {
		if !strings.Contains(rec, tag) {
			continue
		}
		count, _, _ := strings.Cut(rec, " ")
		n, _ := strconv.Atoi(count)
		role := "other"
		for _, r := range roles {
			if strings.Contains(rec, r.frame) {
				role = r.role
				break
			}
		}
		got[role] += n
	}
	return got
}

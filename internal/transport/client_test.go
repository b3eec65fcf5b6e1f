package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dagmutex/internal/runtime"
)

// TestClientFrameRoundTrip pins the client wire layout both ends share.
func TestClientFrameRoundTrip(t *testing.T) {
	payload := append(binary.BigEndian.AppendUint64(nil, 42), "res-7"...)
	frame := AppendClientFrame(nil, OpRelease, 9001, payload)
	if got := binary.BigEndian.Uint32(frame[0:4]); got != uint32(9+len(payload)) {
		t.Fatalf("frame size = %d, want %d", got, 9+len(payload))
	}
	op, reqID, body, err := ReadClientFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if op != OpRelease || reqID != 9001 || !bytes.Equal(body, payload) {
		t.Fatalf("decoded (%d, %d, %q)", op, reqID, body)
	}
}

// TestClientFrameRejectsBadSizes pins the bounds: undersized and
// oversized frames are stream corruption, not requests.
func TestClientFrameRejectsBadSizes(t *testing.T) {
	for _, size := range []uint32{0, 8, MaxClientFrame + 1} {
		buf := binary.BigEndian.AppendUint32(nil, size)
		buf = append(buf, make([]byte, 16)...)
		if _, _, _, err := ReadClientFrame(bytes.NewReader(buf)); err == nil {
			t.Fatalf("size %d accepted", size)
		}
	}
}

// TestClientFrameBufferedReader pins the connection path of the one
// frame reader: frames are decoded in the bufio buffer without a copy
// (and without an allocation), back to back, and a frame larger than the
// buffer still comes through whole.
func TestClientFrameBufferedReader(t *testing.T) {
	long := strings.Repeat("n", 3000) // with the header, larger than the 1 KiB buffer below
	var stream []byte
	stream = AppendClientFrame(stream, OpAcquire, 1, []byte("res-1"))
	stream = AppendClientFrame(stream, OpAcquire, 2, []byte(long))
	stream = AppendClientFrame(stream, OpCancel, 3, nil)
	br := bufio.NewReaderSize(bytes.NewReader(stream), 1024)
	for i, want := range []struct {
		op      byte
		id      uint64
		payload string
	}{{OpAcquire, 1, "res-1"}, {OpAcquire, 2, long}, {OpCancel, 3, ""}} {
		op, id, payload, err := ReadClientFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if op != want.op || id != want.id || string(payload) != want.payload {
			t.Fatalf("frame %d decoded (%d, %d, %d bytes), want (%d, %d, %d bytes)", i, op, id, len(payload), want.op, want.id, len(want.payload))
		}
	}
	// A stream that ends between frames ends with a bare io.EOF, buffered
	// or not: a clean hang-up.
	if _, _, _, err := ReadClientFrame(br); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}
	if _, _, _, err := ReadClientFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("end of unbuffered stream: err = %v, want io.EOF", err)
	}
	// A stream that ends inside a frame is an error, never a short frame.
	for cut := 1; cut < 18; cut++ {
		br.Reset(bytes.NewReader(stream[:cut]))
		if _, _, _, err := ReadClientFrame(br); err == nil || err == io.EOF {
			t.Fatalf("stream cut at %d bytes: err = %v, want an unexpected-EOF error", cut, err)
		}
	}
	if raceEnabled {
		return
	}
	small := AppendClientFrame(nil, OpRelease, 9, []byte("12345678res-1"))
	src := bytes.NewReader(small)
	if avg := testing.AllocsPerRun(1000, func() {
		src.Reset(small)
		br.Reset(src)
		if _, _, _, err := ReadClientFrame(br); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("buffered frame read = %.2f allocs/op, want 0", avg)
	}
}

// TestClientMagicIsNotAValidFrameSize pins the demux invariant: the
// handshake magic, read as a member frame-size header, must always be
// rejected by the member path, or a client connection could be
// misparsed as member traffic.
func TestClientMagicIsNotAValidFrameSize(t *testing.T) {
	asSize := binary.BigEndian.Uint32([]byte(ClientMagic))
	if asSize <= maxFrame {
		t.Fatalf("client magic %#x is within the member frame bound %#x", asSize, maxFrame)
	}
}

// staticBackend is a canned ClientBackend for demux-level tests.
type staticBackend struct {
	fence   uint64
	release error
}

func (b *staticBackend) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	return b.fence, time.Time{}, nil
}

func (b *staticBackend) TryAcquire(resource string) (uint64, time.Time, bool, error) {
	return 0, time.Time{}, false, runtime.ErrTryUnsupported
}

func (b *staticBackend) Release(resource string, fence uint64) error { return b.release }

// TestErrorCodeMapping pins the sentinel -> wire-code table, including
// the CodedError escape hatch backends use for sentinels this package
// cannot import.
func TestErrorCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want byte
	}{
		{runtime.ErrNotHeld, CodeNotHeld},
		{runtime.ErrLeaseExpired, CodeLeaseExpired},
		{runtime.ErrTryUnsupported, CodeTryUnsupported},
		{runtime.ErrNodeDown, CodeNodeDown},
		{ErrClientBusy, CodeBusy},
		{context.Canceled, CodeCanceled},
		{context.DeadlineExceeded, CodeCanceled},
		{&CodedError{Code: CodeLeaseExpired, Err: errors.New("wrapped")}, CodeLeaseExpired},
		{errors.New("anything else"), CodeGeneric},
	}
	for _, c := range cases {
		if got := errorCode(c.err); got != c.want {
			t.Errorf("errorCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// blockingBackend parks every acquire until its context is canceled, and
// counts them: what a queued acquire looks like from the demux.
type blockingBackend struct {
	staticBackend
	entered chan struct{}
}

func (b *blockingBackend) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	b.entered <- struct{}{}
	<-ctx.Done()
	return 0, time.Time{}, ctx.Err()
}

// rawClient dials gw and speaks frames directly, so a test can send what
// internal/client never would.
func rawClient(t *testing.T, gw *ClientGateway) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	hs := binary.BigEndian.AppendUint32([]byte(ClientMagic), ClientVersion)
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadClientHello(conn); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// TestHelloSaysWhatTheBackendCan: the hello after the handshake names
// the backend's lock domains where it has the run capability and a count
// a hello may carry, and 0 — no runs — otherwise: a plain backend, a run
// backend that names no domains for now (a gateway that has reached no
// member yet), and one with more domains than a hello may name.
func TestHelloSaysWhatTheBackendCan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend ClientBackend
		want    int
	}{
		{"plain", &staticBackend{}, 0},
		{"runs", &runRecorder{}, 0},
		{"sharded", &runRecorder{shards: 8}, 8},
		{"too-many-shards", &runRecorder{shards: maxHelloShards + 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, err := NewClientGateway("", tc.backend)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			conn, err := net.Dial("tcp", gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(binary.BigEndian.AppendUint32([]byte(ClientMagic), ClientVersion)); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadClientHello(conn); err != nil || got != tc.want {
				t.Fatalf("hello = (%d shards, %v), want %d", got, err, tc.want)
			}
		})
	}
}

// TestShardOfIsFNV1a: ShardOf is 32-bit FNV-1a mod n, exactly what the
// lock service computed with hash/fnv before it, so no key changed
// shard — nor, through the gateway's routing, member.
func TestShardOfIsFNV1a(t *testing.T) {
	keys := []string{"", "a", "orders", "users", "res-0", "res-63", "contended", "k-17", "\x00\xff", strings.Repeat("long-key/", 40)}
	for i := 0; i < 1000; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i))
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, n := range []int{1, 2, 3, 4, 7, 8, 64, 1 << 16} {
			if got, want := ShardOf(key, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("ShardOf(%q, %d) = %d, FNV-1a says %d", key, n, got, want)
			}
		}
	}
}

// TestDuplicateRequestIDIsRefused is the regression test for a second
// acquire reusing the id of one still in flight: it used to take the
// first one's place in the request table, leaving the first beyond the
// reach of its own CANCEL (and, with recycled requests, freed twice).
// The duplicate must be answered with an error and the original must
// stay cancellable.
func TestDuplicateRequestIDIsRefused(t *testing.T) {
	backend := &blockingBackend{entered: make(chan struct{}, 4)}
	gw, err := NewClientGateway("", backend)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	conn, br := rawClient(t, gw)

	send := func(op byte, id uint64, payload string) {
		t.Helper()
		if _, err := conn.Write(AppendClientFrame(nil, op, id, []byte(payload))); err != nil {
			t.Fatal(err)
		}
	}
	send(OpAcquire, 7, "res")
	<-backend.entered
	send(OpAcquire, 7, "res")
	op, id, payload, err := ReadClientFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if op != RespErr || id != 7 || len(payload) < 1 || payload[0] != CodeGeneric ||
		!strings.Contains(string(payload[1:]), "already in flight") {
		t.Fatalf("duplicate acquire answered (%d, %d, %q), want a generic respErr naming the duplicate", op, id, payload)
	}
	select {
	case <-backend.entered:
		t.Fatal("the duplicate acquire reached the backend")
	default:
	}
	if st := gw.Stats(); st.Inflight != 1 {
		t.Fatalf("inflight = %d after the refused duplicate, want 1 (the original)", st.Inflight)
	}

	// The original is still the one CANCEL finds.
	send(OpCancel, 7, "")
	op, id, payload, err = ReadClientFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if op != RespErr || id != 7 || len(payload) < 1 || payload[0] != CodeCanceled {
		t.Fatalf("canceled original answered (%d, %d, %q), want respErr canceled", op, id, payload)
	}
	// And the id is free again: a third acquire under it is admitted.
	send(OpAcquire, 7, "res")
	<-backend.entered
}

// TestClientWriterCoalesces pins what the write counters are for: frames
// sent while a write is in progress leave together, so write calls stay
// below frames — and every frame arrives, in order.
func TestClientWriterCoalesces(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds write batches frame by frame (see peerConn.writev)")
	}
	srv, cli := net.Pipe()
	defer func() { _ = cli.Close() }()
	var stats writeStats
	out := startFrameWriter(srv, &stats)

	// net.Pipe is synchronous: the first frame's inline write blocks until
	// the test reads it, and everything sent meanwhile queues behind it.
	const n = 20
	first := make(chan struct{})
	go func() {
		defer close(first)
		out.SendClientFrame(RespOK, 0, nil, "")
	}()
	for writing := false; !writing; time.Sleep(time.Millisecond) {
		out.mu.Lock()
		writing = out.writing
		out.mu.Unlock()
	}
	for i := 1; i < n; i++ {
		out.SendClientFrame(RespOK, uint64(i), nil, "")
	}
	br := bufio.NewReader(cli)
	for i := 0; i < n; i++ {
		_, id, _, err := ReadClientFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i) {
			t.Fatalf("frame %d carries id %d: order lost", i, id)
		}
	}
	<-first
	if f, b := stats.frames.Load(), stats.batches.Load(); f != n || b != 2 {
		t.Fatalf("%d frames in %d write calls, want %d frames in 2 (the inline one, then the queue in one writev)", f, b, n)
	}
	_ = srv.Close()
	out.Shutdown()
}

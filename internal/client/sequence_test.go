package client

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dagmutex/internal/runtime"
	"dagmutex/internal/transport"
)

var updateSequence = flag.Bool("update-sequence", false, "rewrite testdata/plain_sequence.golden from this run")

// TestPlainFrameSequenceMatchesRecorded drives one connection through a
// script in which no two callers ever want one key at once, against a
// member that never grants a run, and compares every frame the member
// reads — op, request id, payload — with the sequence the same script
// produced on the commit before lanes existed (testdata/
// plain_sequence.golden, recorded there with -update-sequence). A
// connection that forms no lane must be indistinguishable on the wire
// from one that has none.
func TestPlainFrameSequenceMatchesRecorded(t *testing.T) {
	c, m := pipe(t)
	ctx := context.Background()
	var got []string
	next := func() wireFrame {
		t.Helper()
		f := m.read()
		got = append(got, fmt.Sprintf("%d %d %x", f.op, f.id, f.payload))
		return f
	}
	fence := uint64(100)
	// serve answers the next frame the way a run-less member would.
	serve := func() wireFrame {
		t.Helper()
		f := next()
		switch f.op {
		case transport.OpAcquire, transport.OpAcquireRun: // a run-less member answers both alike
			fence++
			m.grant(f.id, fence)
		case transport.OpTry:
			fence++
			m.write(transport.RespTry, f.id, append([]byte{1}, make([]byte, 16)...))
		case transport.OpRelease:
			m.write(transport.RespOK, f.id, nil)
		default:
			t.Fatalf("script met op %d", f.op)
		}
		return f
	}
	// do runs one blocking client call while the member serves n frames.
	do := func(n int, call func() error) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- call() }()
		for i := 0; i < n; i++ {
			serve()
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(key string) (h Hold) {
		t.Helper()
		do(1, func() (err error) { h, err = c.Acquire(ctx, key); return err })
		return h
	}

	// One key, acquire and release by fence, three times over.
	for i := 0; i < 3; i++ {
		h := acquire("a")
		do(1, func() error { return c.ReleaseHold(h) })
	}
	// Two keys held at once; one released by name.
	ha, hb := acquire("a"), acquire("b")
	do(1, func() error { return c.Release(hb.Resource) })
	do(1, func() error { return c.ReleaseHold(ha) })
	// Try, then release what it got.
	do(1, func() error { _, _, err := c.TryAcquire("c"); return err })
	do(1, func() error { return c.Release("c") })
	// The echo pattern: one caller re-acquiring a key it never releases.
	for i := 0; i < 5; i++ {
		acquire("e")
	}
	// An acquire the member sits on, canceled by its caller, answered late.
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() { _, err := c.Acquire(cctx, "held"); errc <- err }()
	stuck := next()
	cancel()
	next() // the cancel, before the call returns: its write waits for this read
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire = %v", err)
	}
	m.write(transport.RespErr, stuck.id, []byte{transport.CodeCanceled})
	// The same key again, now granted; and a release the member refuses.
	h := acquire("held")
	do(1, func() error { return c.ReleaseHold(h) })
	errc = make(chan error, 1)
	go func() { errc <- c.Release("never") }()
	f := next()
	m.write(transport.RespErr, f.id, []byte{transport.CodeNotHeld})
	if err := <-errc; !errors.Is(err, runtime.ErrNotHeld) {
		t.Fatalf("refused release = %v", err)
	}
	// Two callers in flight at once, on different keys.
	errc = make(chan error, 2)
	go func() { _, err := c.Acquire(ctx, "k1"); errc <- err }()
	f1 := next()
	go func() { _, err := c.Acquire(ctx, "k2"); errc <- err }()
	f2 := next()
	m.grant(f2.id, 202)
	m.grant(f1.id, 201)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	do(1, func() error { return c.ReleaseHold(Hold{Resource: "k1", Fence: 201}) })
	do(1, func() error { return c.ReleaseHold(Hold{Resource: "k2", Fence: 202}) })

	const golden = "testdata/plain_sequence.golden"
	text := strings.Join(got, "\n") + "\n"
	if *updateSequence {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Fatalf("frame sequence differs from the recorded one\ngot:\n%swant:\n%s", text, want)
	}
}

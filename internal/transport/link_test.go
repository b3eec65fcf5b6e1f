package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
)

// gatedConn is a connection whose first Write blocks until the gate
// opens (entered closes when it starts). What it is given is discarded.
// Closing it opens the gate, so a host's Close never leaves a write
// stuck on it.
type gatedConn struct {
	net.Conn
	entered, gate chan struct{}
	enter, once   sync.Once
}

func newGatedConn() *gatedConn {
	c, _ := net.Pipe()
	return &gatedConn{Conn: c, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.enter.Do(func() {
		close(c.entered)
		<-c.gate
	})
	return len(b), nil
}

func (c *gatedConn) open() { c.once.Do(func() { close(c.gate) }) }

func (c *gatedConn) Close() error {
	c.open()
	return c.Conn.Close()
}

// failingConn fails every write, as a connection the peer reset does.
type failingConn struct{ net.Conn }

func (failingConn) Write([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// withPeer installs on h a member link to peer id over conn, with its
// writer running, as if the host had dialed it.
func withPeer(h *TCPHost, id mutex.ID, conn net.Conn) *peerConn {
	pc := startFrameWriter(conn, &h.linkWrites)
	pc.peer = id
	h.mu.Lock()
	h.peers[id] = pc
	h.mu.Unlock()
	return pc
}

// readMsg reads one member frame off c and decodes its by-value message.
func readMsg(t *testing.T, c net.Conn) core.Msg {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var size [4]byte
	if _, err := io.ReadFull(c, size[:]); err != nil {
		t.Fatalf("read header: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(size[:]))
	if _, err := io.ReadFull(c, body); err != nil {
		t.Fatalf("read frame: %v", err)
	}
	m, ok, err := DAGCodec{}.DecodeMsg(body[8:])
	if err != nil || !ok {
		t.Fatalf("decode: by value %v, %v", ok, err)
	}
	return m
}

// TestLinkKeepsTurnOrderToAPeer pins Link's FIFO contract across two
// handler turns of one instance. Turn A sends to peers 2 and 3, and its
// inline Flush blocks writing to peer 2. Turn B then sends to peer 3 and
// flushes from delivery context. Peer 3 must read A's frame first: a
// frame takes its place in the peer's queue when it is sent, not when
// its turn's flush reaches that peer.
func TestLinkKeepsTurnOrderToAPeer(t *testing.T) {
	h, err := NewTCPHost(1, DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	gated := newGatedConn()
	withPeer(h, 2, gated)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = far.Close() }()
	withPeer(h, 3, dialed)

	l := &tcpLink{host: h}
	turnA := core.RequestMsg(core.Request{From: 1, Origin: 1})
	turnB := core.RequestMsg(core.Request{From: 1, Origin: 7})
	send := func(to mutex.ID, m core.Msg) {
		if err := l.SendMsg(to, m); err != nil {
			t.Fatal(err)
		}
	}
	send(2, turnA)
	send(3, turnA)
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		l.Flush()
	}()
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("turn A's flush never wrote to peer 2")
	}
	send(3, turnB)
	l.FlushAsync()

	first := readMsg(t, far)
	gated.open()
	<-flushed
	second := readMsg(t, far)
	if first.Origin != turnA.Origin || second.Origin != turnB.Origin {
		t.Fatalf("peer 3 read origin %d, then %d: want turn A's (%d) before turn B's (%d)",
			first.Origin, second.Origin, turnA.Origin, turnB.Origin)
	}
}

// TestLinkDropsSendsToAPeerWhoseWriteFailed covers a member link's write
// error: the inline write that fails marks the peer closed and, with no
// failure detector, fails the host's sink naming the peer. A later send
// to that peer is dropped: not queued, and not counted as sent.
func TestLinkDropsSendsToAPeerWhoseWriteFailed(t *testing.T) {
	h, err := NewTCPHost(1, DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, far := net.Pipe()
	defer func() { _ = far.Close() }()
	pc := withPeer(h, 2, failingConn{c})
	l := &tcpLink{host: h, instance: 7}
	h.mu.Lock()
	h.links[7] = l
	h.mu.Unlock()

	m := core.RequestMsg(core.Request{From: 1, Origin: 1})
	if err := l.SendMsg(2, m); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if err := h.Err(); err == nil || !strings.Contains(err.Error(), "write to node 2") {
		t.Fatalf("host error after a failed write = %v, want one naming the write to node 2", err)
	}
	pc.mu.Lock()
	closed := pc.closed
	pc.mu.Unlock()
	if !closed {
		t.Fatal("the peer link is still open after its write failed")
	}
	if got := h.InstanceSent(7); got != 1 {
		t.Fatalf("InstanceSent = %d after one send, want 1", got)
	}

	if err := l.SendMsg(2, m); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	pc.mu.Lock()
	queued := pc.n
	pc.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d frames queued to a closed peer link, want 0", queued)
	}
	if got := h.InstanceSent(7); got != 1 {
		t.Fatalf("InstanceSent = %d after a send to a closed peer link, want it still 1", got)
	}
}

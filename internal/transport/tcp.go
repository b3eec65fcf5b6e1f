package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
)

// maxFrame bounds incoming frame sizes; all protocol messages here are a
// few bytes, so anything larger indicates a corrupted stream.
const maxFrame = 1 << 20

// controlInstance tags host-level control frames (failure-detector
// heartbeats). They are fed straight to the detector on arrival and are
// never buffered for, or routed to, a protocol instance.
const controlInstance = ^uint32(0)

// maxPending bounds frames buffered for instances that have not been
// registered yet (a peer racing ahead of this host's StartInstance
// calls); beyond it the stream is treated as corrupted.
const maxPending = 1 << 16

// TCPHost runs this process's end of a cluster over real TCP: one
// listener, one framed connection per peer direction (exactly the
// reliable FIFO channel the thesis assumes), and any number of protocol
// node instances multiplexed over those connections by a 32-bit instance
// tag. A sharded lock service registers one instance per shard; the
// plain TCPNode is a host with a single instance 0.
//
// All instances on one host share the host's member identity: instance k
// here talks to instance k on the peer hosts. Outgoing frames from every
// instance to one peer share a connection and a single writer goroutine
// with a buffered, flush-on-idle write path, so bursts of small protocol
// messages coalesce into few syscalls on the hot path.
type TCPHost struct {
	id       mutex.ID
	codec    Codec
	msgCodec MsgCodec // codec's by-value surface, probed once; nil when it has none
	ln       net.Listener
	sink     *runtime.ErrorSink

	mu        sync.RWMutex // guards links, pending, addrs, peers, stopped
	links     map[uint32]*tcpLink
	nodes     map[uint32]*runtime.Node
	pending   map[uint32][]runtime.Envelope
	nPending  int
	addrs     map[mutex.ID]string
	connected bool
	peers     map[mutex.ID]*peerConn
	stopped   bool

	insMu     sync.Mutex
	ins       []net.Conn
	insClosed bool // set by Close; late-accepted conns are closed on sight

	// det, when set, turns transport-level peer faults (connection reset,
	// dial failure) into per-peer down evidence instead of cluster-fatal
	// sink errors, and consumes heartbeat traffic. inj, when set, is the
	// fault plan consulted on both send and receive.
	det atomic.Pointer[failure.Detector]
	inj atomic.Pointer[failure.Injector]

	// clients, when set, serves dialed non-member clients: inbound
	// connections opening with the client handshake magic are routed to
	// the client-protocol demux instead of the member frame reader.
	clients atomic.Pointer[clientBackendBox]

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	sent     atomic.Int64
	received atomic.Int64

	// linkWrites counts the frames this host's member links wrote and the
	// write calls that carried them (see Register).
	linkWrites writeStats
}

// NewTCPHost starts a listener for member id on a fresh loopback port.
// Register protocol instances with StartInstance, exchange Addr values
// out of band, then Connect with the full peer address book.
func NewTCPHost(id mutex.ID, codec Codec) (*TCPHost, error) {
	return NewTCPHostOn(id, "127.0.0.1:0", codec)
}

// NewTCPHostOn is NewTCPHost with an explicit listen address, for real
// multi-process deployments whose address book is agreed in advance
// (e.g. "0.0.0.0:7001" or "127.0.0.1:7001").
func NewTCPHostOn(id mutex.ID, listen string, codec Codec) (*TCPHost, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", listen, err)
	}
	h := &TCPHost{
		id:      id,
		codec:   codec,
		ln:      ln,
		sink:    runtime.NewErrorSink(),
		links:   make(map[uint32]*tcpLink),
		nodes:   make(map[uint32]*runtime.Node),
		pending: make(map[uint32][]runtime.Envelope),
		peers:   make(map[mutex.ID]*peerConn),
		stop:    make(chan struct{}),
	}
	h.msgCodec, _ = codec.(MsgCodec)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.acceptLoop()
	}()
	return h, nil
}

// Addr returns the host's listen address, to be shared with peers.
func (h *TCPHost) Addr() string { return h.ln.Addr().String() }

// ID returns the member identity every instance on this host runs as.
func (h *TCPHost) ID() mutex.ID { return h.id }

// Sink returns the host's cluster-wide error sink.
func (h *TCPHost) Sink() *runtime.ErrorSink { return h.sink }

// Err returns the first transport or protocol error observed, if any.
func (h *TCPHost) Err() error { return h.sink.Err() }

// Stats returns frames sent and received by this host (all instances).
func (h *TCPHost) Stats() (sent, received int64) {
	return h.sent.Load(), h.received.Load()
}

// InstanceSent returns frames sent by one instance, or 0 for an unknown
// instance. A remote cluster member only observes its own sends, so this
// is a per-process view, not a cluster-wide total.
func (h *TCPHost) InstanceSent(instance uint32) int64 {
	h.mu.RLock()
	link, ok := h.links[instance]
	h.mu.RUnlock()
	if !ok {
		return 0
	}
	return link.sent.Load()
}

type clientBackendBox struct {
	b   ClientBackend
	adm *admission
}

// ServeClients opens this host's listener to dialed non-member clients:
// a connection that starts with the client handshake magic (instead of a
// member frame) is served through backend — acquire, try-acquire and
// release of the resources the backend arbitrates, with per-connection
// queueing, backpressure, cancellation propagation and disconnect
// cleanup. Admission uses the defaults (ClientQueue zero value:
// MaxClientInflight per connection, no rate limit). Member traffic on
// the same listener is unaffected. Without a backend, client
// connections are refused.
func (h *TCPHost) ServeClients(backend ClientBackend) {
	h.ServeClientsWith(backend, ClientQueue{})
}

// ServeClientsWith is ServeClients with explicit admission control: q's
// depth bounds each connection's in-flight requests, and its rate/burst
// token bucket is shared across every client connection this host
// accepts.
func (h *TCPHost) ServeClientsWith(backend ClientBackend, q ClientQueue) {
	h.clients.Store(&clientBackendBox{b: backend, adm: newAdmission(q)})
}

// SetClientQueue replaces the admission configuration for dialed
// clients. It applies to connections accepted after the call;
// connections already open keep the gate they were admitted under. A
// no-op when no client backend is registered.
func (h *TCPHost) SetClientQueue(q ClientQueue) {
	if box := h.clients.Load(); box != nil {
		h.clients.Store(&clientBackendBox{b: box.b, adm: newAdmission(q)})
	}
}

// ClientStats snapshots the host's client-tier counters (zero when no
// client backend is registered).
func (h *TCPHost) ClientStats() ClientStats {
	if box := h.clients.Load(); box != nil {
		return box.adm.stats()
	}
	return ClientStats{}
}

// SetInjector installs a fault plan: frames the plan vetoes are dropped
// on send and on receive, emulating crashes, severed links and
// partitions over live sockets (the connections stay up, so a healed
// partition resumes without redialing). Install before Connect.
func (h *TCPHost) SetInjector(inj *failure.Injector) { h.inj.Store(inj) }

// EnableFailureDetection runs a host-level heartbeat failure detector
// against peers: heartbeats ride the same framed connections as protocol
// traffic (tagged as control frames), every inbound frame counts as
// liveness, and transport-level faults — a connection reset when a peer
// process dies, a failed dial — become immediate per-peer down evidence
// instead of cluster-fatal errors. Down and up verdicts are delivered to
// every protocol instance on this host (its membership handler, for the
// DAG algorithm's recovery); instances whose protocol cannot recover
// escalate to the host's error sink. Call before Connect; detection
// stops with Close.
func (h *TCPHost) EnableFailureDetection(cfg failure.Config, peers []mutex.ID) {
	det := failure.NewDetector(h.id, peers, func(to mutex.ID, m mutex.Message) error {
		return h.sendControl(to, m)
	}, cfg)
	det.OnDown(func(p mutex.ID) { h.broadcastPeer(p, true) })
	det.OnUp(func(p mutex.ID) { h.broadcastPeer(p, false) })
	h.det.Store(det)
	det.Start()
}

// Detector returns the host's failure detector, or nil if detection is
// not enabled.
func (h *TCPHost) Detector() *failure.Detector { return h.det.Load() }

// broadcastPeer delivers one membership verdict to every instance.
func (h *TCPHost) broadcastPeer(peer mutex.ID, down bool) {
	h.mu.RLock()
	nodes := make([]*runtime.Node, 0, len(h.nodes))
	for _, n := range h.nodes {
		nodes = append(nodes, n)
	}
	h.mu.RUnlock()
	for _, n := range nodes {
		var err error
		if down {
			err = n.PeerDown(peer)
		} else {
			err = n.PeerUp(peer)
		}
		if err != nil {
			h.sink.Fail(err)
		}
	}
}

// frame is one encoded wire frame on its way to a peer: the 12-byte
// member header plus the codec payload, in a pooled buffer. Send and
// SendMsg encode into a recycled frame — SendMsg straight from the
// by-value message, with no mutex.Message in between — and put it on the
// peer's ring at once; whoever writes it returns it to the pool
// afterwards, so the steady-state send path allocates nothing.
type frame struct {
	b []byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func putFrame(f *frame) { framePool.Put(f) }

// memberHeader is the size header, instance tag and sender id that open
// every member wire frame.
const memberHeader = 12

// reserveFrame takes a frame from the pool and returns it with its
// buffer cut back to a blank header, ready for a codec to append to.
func reserveFrame() (*frame, []byte) {
	f := framePool.Get().(*frame)
	return f, append(f.b[:0], make([]byte, memberHeader)...)
}

// newFrame builds one member wire frame for instance carrying m: size
// header, instance tag, sender id, payload — encoded into a pooled
// buffer via the codec's append path.
func (h *TCPHost) newFrame(instance uint32, m mutex.Message) (*frame, error) {
	f, b := reserveFrame()
	b, err := h.codec.AppendEncode(b, m)
	return h.sealFrame(f, b, err, instance)
}

// newMsgFrame is newFrame for a message travelling by value. Callers
// have checked that the codec has the capability.
func (h *TCPHost) newMsgFrame(instance uint32, m core.Msg) (*frame, error) {
	f, b := reserveFrame()
	b, err := h.msgCodec.AppendEncodeMsg(b, m)
	return h.sealFrame(f, b, err, instance)
}

// sealFrame fills in the header of the frame encoded into b (or returns
// the frame to the pool when the encode failed).
func (h *TCPHost) sealFrame(f *frame, b []byte, err error, instance uint32) (*frame, error) {
	if err != nil {
		putFrame(f)
		return nil, err
	}
	f.b = b
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-4))
	binary.BigEndian.PutUint32(b[4:8], instance)
	binary.BigEndian.PutUint32(b[8:12], uint32(h.id))
	return f, nil
}

// sendControl frames a host-level control message (a heartbeat) for the
// peer's writer.
func (h *TCPHost) sendControl(to mutex.ID, m mutex.Message) error {
	f, err := h.newFrame(controlInstance, m)
	if err != nil {
		return fmt.Errorf("encode %s: %w", m.Kind(), err)
	}
	h.queue(to, f, true)
	return nil
}

// peerFault classifies a transport-level fault on the link to/from peer.
// With failure detection enabled it is per-peer down evidence — the
// detector (and through it the protocol's recovery) absorbs it, and the
// cluster keeps running. Without detection it keeps the original
// fail-fast contract: the first fault fails the cluster through the
// sink, so blocked Acquires do not hang. Protocol violations (bad
// frames, codec errors) never come here; they stay fail-fast always.
func (h *TCPHost) peerFault(peer mutex.ID, err error) {
	if det := h.det.Load(); det != nil {
		if peer != mutex.Nil {
			det.MarkDown(peer)
		}
		return
	}
	if err != nil {
		h.fail(err)
	}
}

// Connect supplies the peer address book (member id -> listen address).
// It must be called before the first Acquire; outgoing connections are
// dialed lazily on first send.
func (h *TCPHost) Connect(addrs map[mutex.ID]string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addrs = make(map[mutex.ID]string, len(addrs))
	for id, a := range addrs {
		h.addrs[id] = a
	}
	h.connected = true
}

// StartInstance builds and starts protocol instance (running as member
// h.ID()) on this host. Frames that arrived for the instance before it
// was registered are delivered first, in arrival order.
func (h *TCPHost) StartInstance(instance uint32, b mutex.Builder, cfg mutex.Config) (*runtime.Node, error) {
	link := &tcpLink{host: h, instance: instance, inbox: newMailbox[runtime.Envelope]()}
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: host %d is closed", h.id)
	}
	if _, dup := h.links[instance]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: instance %d already registered on host %d", instance, h.id)
	}
	// Seed the link's pre-attach buffer with the frames that arrived
	// before registration, before publishing it: with h.mu held, no
	// reader can interleave a newer frame ahead of them.
	link.pend = h.pending[instance]
	h.nPending -= len(link.pend)
	delete(h.pending, instance)
	h.links[instance] = link
	h.mu.Unlock()

	n, err := runtime.Start(h.id, b, cfg, link, h.sink)
	if err != nil {
		// Salvage the buffered envelopes (the early frames plus anything
		// routed since registration) back into pending, so a retried
		// StartInstance still sees the peer's traffic in arrival order.
		h.mu.Lock()
		delete(h.links, instance)
		link.dmu.Lock()
		salvage := link.pend
		link.pend = nil
		link.dmu.Unlock()
		h.pending[instance] = append(salvage, h.pending[instance]...)
		h.nPending += len(salvage)
		h.mu.Unlock()
		return nil, err
	}
	// Drain the pre-attach backlog into the node, then switch the link to
	// direct delivery: from here on the reader goroutines push envelopes
	// straight into the node's handler, with no inbox hop in between.
	link.attach(n)
	h.mu.Lock()
	if h.stopped {
		// Close ran between registration and here; its node sweep missed
		// this instance, so it must be torn down now or its consume
		// goroutine leaks on a dead host.
		delete(h.links, instance)
		h.mu.Unlock()
		n.Close()
		return nil, fmt.Errorf("transport: host %d closed during StartInstance", h.id)
	}
	h.nodes[instance] = n
	h.mu.Unlock()
	// A peer may already be down (its process died before this instance
	// registered; the detector's verdict fired into the then-current
	// instance set). Replay the standing verdicts so a late-started
	// instance recovers instead of waiting forever on a dead holder.
	if det := h.det.Load(); det != nil {
		for _, p := range det.Down() {
			if err := n.PeerDown(p); err != nil {
				h.sink.Fail(err)
			}
		}
	}
	return n, nil
}

// tcpLink is one instance's attachment to the host. Inbound frames are
// pushed straight into the node's handler from the reader goroutines
// (runtime.Node.DeliverEnvelope) once attach has run; the inbox exists
// only to park the runtime's pull-mode actor loop, which sees nothing
// and exits when the link closes. Frames that arrive between
// registration and attach wait in pend, so arrival order survives the
// switch-over.
//
// Outbound, a frame joins its peer's ring when the handler sends it, so
// every frame this instance sends to one peer reaches it in send order,
// whichever turn's flush writes it. The ring is not woken: the peer is
// noted instead, and the runtime's end-of-turn Flush or FlushAsync
// decides who writes it — a release's PRIVILEGE and its pipelined
// re-REQUEST leave in one writev. A noted peer is owed a flush: it is
// noted after its frame is queued, and a flush takes it before writing,
// so a frame queued after that take is noted again. Turns that overlap
// share the list; it grows to the number of peers and is reused.
type tcpLink struct {
	host     *TCPHost
	instance uint32
	inbox    *mailbox[runtime.Envelope]
	sent     atomic.Int64

	node atomic.Pointer[runtime.Node] // set by attach; nil while starting
	dmu  sync.Mutex                   // orders pre-attach buffering against the switch
	pend []runtime.Envelope           // envelopes buffered before attach, guarded by dmu

	nmu   sync.Mutex
	noted []*peerConn // peers with frames queued since a flush took them, guarded by nmu
}

// Send frames the message and queues it for the peer; the runtime's
// flush at the end of the handler turn sees it written. It never blocks
// on the network.
func (l *tcpLink) Send(to mutex.ID, m mutex.Message) error {
	f, err := l.host.newFrame(l.instance, m)
	if err != nil {
		return fmt.Errorf("encode %s: %w", m.Kind(), err)
	}
	l.queue(to, f)
	return nil
}

// SendMsg implements runtime.MsgLink: Send for a REQUEST or PRIVILEGE
// travelling by value, encoded straight into the pooled frame. Under a
// codec without the by-value capability the message is boxed here, at
// the last moment, and takes Send.
func (l *tcpLink) SendMsg(to mutex.ID, m core.Msg) error {
	if l.host.msgCodec == nil {
		return l.Send(to, m.Boxed())
	}
	f, err := l.host.newMsgFrame(l.instance, m)
	if err != nil {
		return fmt.Errorf("encode %v: %w", m.Kind, err)
	}
	l.queue(to, f)
	return nil
}

// queue puts f on peer to's ring and notes the peer for the turn's
// flush.
func (l *tcpLink) queue(to mutex.ID, f *frame) {
	if pc := l.host.queue(to, f, false); pc != nil {
		l.sent.Add(1)
		l.note(pc)
	}
}

// note records that pc holds frames a flush of this link owes a write.
func (l *tcpLink) note(pc *peerConn) {
	l.nmu.Lock()
	if !slices.Contains(l.noted, pc) {
		l.noted = append(l.noted, pc)
	}
	l.nmu.Unlock()
}

// take removes and returns the first noted peer, nil when none is left.
func (l *tcpLink) take() *peerConn {
	l.nmu.Lock()
	defer l.nmu.Unlock()
	if len(l.noted) == 0 {
		return nil
	}
	pc := l.noted[0]
	n := copy(l.noted, l.noted[1:])
	l.noted[n] = nil
	l.noted = l.noted[:n]
	return pc
}

// Flush writes the noted peers' rings from the calling goroutine: each
// peer whose connection is up and whose write turn is free gets one
// inline writev of what is queued there — the hot handoff path
// (PRIVILEGE + pipelined re-REQUEST to the successor) costs one syscall
// and no writer wakeup. A busy or not-yet-dialed peer is left to whoever
// holds its turn. Only application goroutines may Flush; it can block on
// the network.
func (l *tcpLink) Flush() {
	for pc := l.take(); pc != nil; pc = l.take() {
		if err := pc.flush(); err != nil {
			l.host.peerFault(pc.peer, fmt.Errorf("write to node %d: %w", pc.peer, err))
		}
	}
}

// FlushAsync wakes the noted peers' writer goroutines and never blocks
// the caller — the flush for delivery context (transport readers,
// detector verdicts), where an inline write could deadlock two nodes
// writing to each other.
func (l *tcpLink) FlushAsync() {
	for pc := l.take(); pc != nil; pc = l.take() {
		pc.wake.Signal()
	}
}

// Recv blocks on the instance's inbox. Direct delivery bypasses the
// inbox, so in practice Recv only ever observes the close.
func (l *tcpLink) Recv() (runtime.Envelope, bool) { return l.inbox.get() }

// Close closes the instance's inbox; queued envelopes still drain.
func (l *tcpLink) Close() { l.inbox.close() }

// deliver hands one inbound envelope to the instance: straight into the
// node once attached (the allocation- and hop-free path), into the
// pre-attach buffer before that. The node pointer is only stored after
// the buffer drained, so a reader that observes it non-nil cannot
// overtake a buffered envelope from its own connection.
func (l *tcpLink) deliver(e runtime.Envelope) {
	if n := l.node.Load(); n != nil {
		n.DeliverEnvelope(e)
		return
	}
	l.dmu.Lock()
	if n := l.node.Load(); n != nil {
		l.dmu.Unlock()
		n.DeliverEnvelope(e)
		return
	}
	l.pend = append(l.pend, e)
	l.dmu.Unlock()
}

// attach drains the pre-attach backlog into n in arrival order, then
// switches the link to direct delivery. Readers delivering concurrently
// queue behind dmu and land after the backlog.
func (l *tcpLink) attach(n *runtime.Node) {
	l.dmu.Lock()
	defer l.dmu.Unlock()
	for _, e := range l.pend {
		n.DeliverEnvelope(e)
	}
	l.pend = nil
	l.node.Store(n)
}

// maxWriteBatch bounds how many queued frames one writev gathers; a
// release's PRIVILEGE and the pipelined re-REQUEST behind it fit with
// lots of room to spare, and a recovering peer draining a long backlog
// still writes in bounded slabs.
const maxWriteBatch = 64

// peerConn is the outgoing side of one connection — a member's link to a
// peer, or either end of a CLIENT-protocol connection (FrameWriter): an
// unbounded ring of pooled frames in the order they were queued, a
// writer goroutine draining it in writev batches, and a write turn
// (writing) that a sender's flush can claim to writev inline from its
// own goroutine instead of waking the writer. Both writers go through
// write, so the ring leaves in order whoever holds the turn. conn is set
// once the writer has dialed, so Close can sever it and unblock any
// write stuck against a full send buffer.
type peerConn struct {
	mu      sync.Mutex
	wake    *sync.Cond // wakes the writer: frames queued, write turn free, closing
	ring    []*frame   // power-of-two ring, mirrors mailbox
	head, n int
	closed  bool
	writing bool     // a goroutine owns the connection's write side
	conn    net.Conn // set by the writer after dialing
	peer    mutex.ID // the member a member link writes to; unset for CLIENT connections

	// bufArr backs the writev iovec list; owned by whoever holds the
	// write turn. net.Buffers.WriteTo consumes the slice it is given,
	// so each write rebuilds its list over this fixed array. bufs is
	// the persistent slice header over it: WriteTo takes its address,
	// and keeping it a field (rather than a local) stops that address
	// from forcing a per-write heap allocation of the header.
	bufArr [maxWriteBatch][]byte
	bufs   net.Buffers

	// stats is where writev counts its frames and write calls: the
	// host's linkWrites for a member link, the admission gate's for an
	// accepted CLIENT-protocol connection, nil (uncounted) for a dialing
	// client's own writer. drained (CLIENT connections only,
	// startFrameWriter) signals that the drain goroutine has exited.
	stats   *writeStats
	drained chan struct{}
}

// writeStats counts what a set of connections wrote: frames, and the
// write calls that carried them. frames/batches is the coalescing ratio.
type writeStats struct {
	frames  atomic.Int64
	batches atomic.Int64
}

func newPeerConn() *peerConn {
	pc := &peerConn{}
	pc.wake = sync.NewCond(&pc.mu)
	return pc
}

// push appends f to the ring. Callers hold pc.mu.
func (pc *peerConn) push(f *frame) {
	if pc.n == len(pc.ring) {
		size := len(pc.ring) * 2
		if size == 0 {
			size = 16
		}
		next := make([]*frame, size)
		for i := 0; i < pc.n; i++ {
			next[i] = pc.ring[(pc.head+i)&(len(pc.ring)-1)]
		}
		pc.ring = next
		pc.head = 0
	}
	pc.ring[(pc.head+pc.n)&(len(pc.ring)-1)] = f
	pc.n++
}

// pop removes and returns the oldest frame. Callers hold pc.mu and have
// checked n > 0.
func (pc *peerConn) pop() *frame {
	f := pc.ring[pc.head]
	pc.ring[pc.head] = nil
	pc.head = (pc.head + 1) & (len(pc.ring) - 1)
	pc.n--
	return f
}

// shutdown marks the peer link dead — senders drop instead of queueing
// unsent frames forever — and recycles whatever was still queued.
func (pc *peerConn) shutdown() {
	pc.mu.Lock()
	pc.closed = true
	for pc.n > 0 {
		putFrame(pc.pop())
	}
	pc.wake.Broadcast()
	pc.mu.Unlock()
}

// accept puts f at the back of the ring and reports whether it was
// accepted; a closed link drops it back into the pool. wake also signals
// the writer. A sender that flushes afterwards leaves that to its flush.
func (pc *peerConn) accept(f *frame, wake bool) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		putFrame(f)
		return false
	}
	pc.push(f)
	if wake {
		pc.wake.Signal()
	}
	return true
}

// flush writes what is queued inline when the connection is up and its
// write turn free, and returns the write's error. Otherwise it leaves
// the ring to the writer, which needs no wakeup: it is dialing and
// drains the ring once connected, or it holds the turn and loops back
// to the ring, or an inline writer holds it and wakes the writer when it
// hands the turn back with frames still queued.
func (pc *peerConn) flush() error {
	pc.mu.Lock()
	if pc.conn == nil || pc.writing || pc.n == 0 {
		pc.mu.Unlock()
		return nil
	}
	return pc.write()
}

// write takes the write turn and writes up to maxWriteBatch queued
// frames to the connection in one writev, then hands the turn back and
// wakes the writer if frames are still queued. A failed write severs the
// connection and marks the link closed. The caller holds pc.mu and has
// checked that the connection is up, the turn free and the ring not
// empty; write returns with pc.mu released.
func (pc *peerConn) write() error {
	var batch [maxWriteBatch]*frame
	n := 0
	for n < maxWriteBatch && pc.n > 0 {
		batch[n] = pc.pop()
		n++
	}
	pc.writing = true
	conn := pc.conn
	pc.mu.Unlock()
	err := pc.writev(conn, batch[:n])
	pc.mu.Lock()
	pc.writing = false
	if pc.n > 0 {
		pc.wake.Signal() // frames queued behind this write: the writer's turn
	}
	pc.mu.Unlock()
	if err != nil {
		pc.shutdown()
		_ = conn.Close()
	}
	return err
}

// writev gathers fs into one vectored write and returns the frames to
// the pool. The caller holds the connection's write turn.
func (pc *peerConn) writev(conn net.Conn, fs []*frame) error {
	var err error
	if pc.stats != nil {
		calls := 1
		if raceEnabled {
			calls = len(fs) // one Write per frame, below
		}
		pc.stats.frames.Add(int64(len(fs)))
		pc.stats.batches.Add(int64(calls))
	}
	if raceEnabled {
		// net.Buffers.WriteTo bottoms out in the writev syscall, which
		// lacks the race-detector release annotation that syscall.Write
		// performs on its ioSync point — batched writes would sever the
		// detector-visible happens-before edge between a token handoff's
		// sender and receiver, and correctly-lock-protected application
		// data would be flagged. Race builds write sequentially to keep
		// the annotation; only they pay the extra syscalls.
		for _, f := range fs {
			if _, werr := conn.Write(f.b); werr != nil {
				err = werr
				break
			}
		}
	} else {
		pc.bufs = pc.bufArr[:0]
		for _, f := range fs {
			pc.bufs = append(pc.bufs, f.b)
		}
		_, err = pc.bufs.WriteTo(conn)
	}
	for _, f := range fs {
		putFrame(f)
	}
	return err
}

// peer returns the peerConn for to, creating it (and starting its
// writer) on first use. nil once the host is stopping.
func (h *TCPHost) peer(to mutex.ID) *peerConn {
	// Read-locked fast path: peers is append-only until Close, and the
	// send hot path must not serialize against concurrent receives.
	h.mu.RLock()
	pc, ok := h.peers[to]
	h.mu.RUnlock()
	if ok {
		return pc
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if pc, ok := h.peers[to]; ok {
		return pc
	}
	if h.stopped {
		return nil
	}
	pc = newPeerConn()
	pc.peer = to
	pc.stats = &h.linkWrites
	h.peers[to] = pc
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.writeLoop(pc)
	}()
	return pc
}

// queue puts f on the ring of peer to, starting its writer on first use,
// and returns that peer's connection (wake also signals the writer). A
// frame the fault plan vetoes, or one for a dead link (dial failed,
// write failed, host closing), goes back to the pool instead and queue
// returns nil: frames to a dead writer are dropped, not kept unsent
// forever.
func (h *TCPHost) queue(to mutex.ID, f *frame, wake bool) *peerConn {
	if !h.inj.Load().Allow(h.id, to) {
		putFrame(f)
		return nil // injected loss: dropped before the writer, so the link heals cleanly
	}
	pc := h.peer(to)
	if pc == nil {
		putFrame(f)
		return nil
	}
	if !pc.accept(f, wake) {
		return nil
	}
	h.sent.Add(1)
	return pc
}

// writeLoop dials the peer, then drains the frame queue in writev
// batches: whatever frames have accumulated while the previous batch was
// being written — a REQUEST and the PRIVILEGE chasing it, a release and
// its pipelined re-request — leave in a single gathered syscall, and the
// moment the queue runs dry the writer blocks without buffering, so a
// lone message never waits on a flush timer. Written frames return to
// the pool, keeping the steady-state send path allocation-free. In the
// steady state the writer mostly sleeps: handler turns flushed from
// application goroutines writev inline, and the writer covers dialing,
// delivery-context sends and overflow behind a busy connection.
func (h *TCPHost) writeLoop(pc *peerConn) {
	conn, err := h.dial(pc.peer)
	if err != nil {
		pc.shutdown()
		h.peerFault(pc.peer, fmt.Errorf("connect to node %d: %w", pc.peer, err))
		return
	}
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		_ = conn.Close()
		return
	}
	pc.conn = conn
	pc.mu.Unlock()
	defer func() { _ = conn.Close() }()
	if err := pc.drain(); err != nil {
		h.peerFault(pc.peer, fmt.Errorf("write to node %d: %w", pc.peer, err))
	}
}

// drain writes queued frames until the link closes or a write fails (the
// link is marked closed before returning the error). Shared by the
// member write loop and the client-connection writer; pc.conn is set.
func (pc *peerConn) drain() error {
	for {
		pc.mu.Lock()
		for (pc.n == 0 || pc.writing) && !pc.closed {
			pc.wake.Wait()
		}
		if pc.closed {
			pc.mu.Unlock()
			return nil
		}
		if err := pc.write(); err != nil {
			return err
		}
	}
}

// dial resolves the peer's address and connects, retrying briefly: peers
// may still be starting their listeners, and the address book may arrive
// a moment after the first inbound traffic does. A book that is present
// but lacks the peer is a configuration error and fails immediately.
func (h *TCPHost) dial(to mutex.ID) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		h.mu.RLock()
		addr, ok := h.addrs[to]
		connected := h.connected
		h.mu.RUnlock()
		switch {
		case ok:
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				return c, nil
			}
			lastErr = err
		case connected:
			return nil, fmt.Errorf("no address for node %d in the Connect address book", to)
		default:
			lastErr = fmt.Errorf("no address for node %d (Connect not called?)", to)
		}
		select {
		case <-h.stop:
			return nil, lastErr
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil, lastErr
}

// acceptLoop owns the listener; one reader goroutine per inbound peer.
func (h *TCPHost) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		h.insMu.Lock()
		if h.insClosed {
			// Close already swept h.ins; a conn registered now would
			// never be severed and its readLoop would block Close's
			// wg.Wait forever.
			h.insMu.Unlock()
			_ = conn.Close()
			return
		}
		h.ins = append(h.ins, conn)
		h.insMu.Unlock()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.dispatch(conn)
		}()
	}
}

// dispatch reads the first four inbound bytes to tell the two wire
// populations apart: member connections open with a frame-size header
// (bounded by maxFrame), dialed clients with the handshake magic (which
// exceeds any valid size). Members continue into readLoop; clients are
// served by the client-protocol demux if a backend is registered. The
// reader is bufio's default 4 KB, as the client-side and gateway readers
// are: the largest burst one read has to take is one peer writev, at
// most maxWriteBatch frames of about 28 bytes (some 1.8 KB), and a
// rarer, larger recovery frame is still read whole by io.ReadFull. A
// larger buffer would cost every inbound connection its size, for
// nothing.
func (h *TCPHost) dispatch(conn net.Conn) {
	br := bufio.NewReader(conn)
	var first [4]byte
	if _, err := io.ReadFull(br, first[:]); err != nil {
		_ = conn.Close()
		return
	}
	if string(first[:]) == ClientMagic {
		var ver [4]byte
		if _, err := io.ReadFull(br, ver[:]); err != nil {
			_ = conn.Close()
			return
		}
		box := h.clients.Load()
		if box == nil || binary.BigEndian.Uint32(ver[:]) != ClientVersion {
			_ = conn.Close()
			return
		}
		serveClientConn(br, conn, box.b, box.adm)
		return
	}
	h.readLoop(conn, br, first)
}

// readLoop parses frames and delivers them to the tagged instance. The
// reader is buffered, so a burst of small frames (a PRIVILEGE with the
// pipelined re-REQUEST behind it) costs one read syscall, and the frame
// body lands in a per-connection scratch buffer the codec decodes out
// of — the steady-state receive path allocates nothing: a REQUEST or
// PRIVILEGE is decoded by value into the envelope (when the codec has
// the MsgCodec capability), and only the rare recovery, INIT and
// heartbeat frames become a boxed message. Both kinds of envelope then
// pass the same sequence of checks — received count, receive-side fault
// plan, detector, control instance, route. Each inbound connection carries exactly one peer's frames
// (the peer's writer dialed it), so once the first frame names the
// sender, a broken connection is attributable: with failure detection
// enabled, a reset or EOF is that peer's death evidence rather than a
// cluster-fatal error. Frame and codec violations stay fail-fast
// regardless — they mean a corrupted stream, not a dead peer.
func (h *TCPHost) readLoop(conn net.Conn, br *bufio.Reader, first [4]byte) {
	defer func() { _ = conn.Close() }()
	peer := mutex.Nil
	var header [4]byte
	header = first
	body := make([]byte, 64)
	pending := true // the dispatch peek already read the first header
	for {
		if !pending {
			if _, err := io.ReadFull(br, header[:]); err != nil {
				switch {
				case errors.Is(err, io.EOF), isClosedErr(err):
					h.peerFault(peer, nil)
				default:
					h.peerFault(peer, fmt.Errorf("read header: %w", err))
				}
				return
			}
		}
		pending = false
		size := binary.BigEndian.Uint32(header[:])
		if size < 8 || size > maxFrame {
			h.fail(fmt.Errorf("bad frame size %d", size))
			return
		}
		if int(size) > cap(body) {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			if !isClosedErr(err) {
				h.peerFault(peer, fmt.Errorf("read frame: %w", err))
			}
			return
		}
		instance := binary.BigEndian.Uint32(body[0:4])
		from := mutex.ID(binary.BigEndian.Uint32(body[4:8]))
		peer = from
		e := runtime.Envelope{From: from}
		byValue := false
		var err error
		if h.msgCodec != nil {
			e.Val, byValue, err = h.msgCodec.DecodeMsg(body[8:])
		}
		if !byValue && err == nil {
			e.Msg, err = h.codec.Decode(body[8:])
		}
		if err != nil {
			h.fail(err)
			return
		}
		h.received.Add(1)
		if !h.inj.Load().Allow(from, h.id) {
			continue // injected loss on the receive side
		}
		// A by-value envelope shows the detector a nil message: liveness
		// evidence like any other frame, never a heartbeat to consume.
		if det := h.det.Load(); det != nil && det.Inbound(from, e.Msg) {
			continue // heartbeat: liveness evidence only
		}
		if instance == controlInstance {
			continue // control frame with no detector attached
		}
		if !h.route(instance, e) {
			return
		}
	}
}

// route delivers e to the instance's link — pushed straight into the
// node's handler once the instance is attached — buffering it if the
// instance has not been registered yet. The registered case takes only
// the read lock, and delivery itself runs outside the host mutex (the
// handler may send, and sends take the host mutex).
func (h *TCPHost) route(instance uint32, e runtime.Envelope) bool {
	h.mu.RLock()
	link, ok := h.links[instance]
	h.mu.RUnlock()
	if ok {
		link.deliver(e)
		return true
	}
	h.mu.Lock()
	if link, ok := h.links[instance]; ok {
		h.mu.Unlock()
		link.deliver(e)
		return true
	}
	if h.nPending >= maxPending {
		h.mu.Unlock()
		h.fail(fmt.Errorf("over %d frames buffered for unregistered instance %d", maxPending, instance))
		return false
	}
	h.pending[instance] = append(h.pending[instance], e)
	h.nPending++
	h.mu.Unlock()
	return true
}

// isClosedErr reports whether err is this side's own shutdown closing
// the connection. It deliberately does NOT match every *net.OpError: a
// peer crash surfaces as a connection reset, which must reach the sink
// so blocked Acquires fail fast instead of waiting out their deadlines.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// fail records the first transport error unless the host is shutting
// down, in which case connection teardown noise is expected.
func (h *TCPHost) fail(err error) {
	select {
	case <-h.stop:
		return
	default:
	}
	h.sink.Fail(err)
}

// Close shuts the listener, writers and connections down, then stops
// every instance's actor loop. Frames already received are delivered to
// their instances first; queued outgoing frames may be dropped (the
// protocol has no shutdown handshake to wait for).
func (h *TCPHost) Close() {
	h.stopOnce.Do(func() {
		close(h.stop)
		// Detector first: no verdicts may fire into closing instances.
		if det := h.det.Load(); det != nil {
			det.Stop()
		}
		h.mu.Lock()
		h.stopped = true
		peers := h.peers
		h.mu.Unlock()
		// Idle writers wake on the shutdown broadcast and hang up; a
		// write stuck mid-writev (peer stopped reading) is unblocked by
		// the connection close.
		for _, pc := range peers {
			pc.shutdown()
			pc.mu.Lock()
			if pc.conn != nil {
				_ = pc.conn.Close()
			}
			pc.mu.Unlock()
		}
		_ = h.ln.Close()
		// Inbound connections must be closed too: their far ends belong
		// to peers that may outlive (or never close) this host, and the
		// readLoops would otherwise block in Read forever.
		h.insMu.Lock()
		h.insClosed = true
		for _, c := range h.ins {
			_ = c.Close()
		}
		h.insMu.Unlock()
	})
	h.wg.Wait()
	h.mu.Lock()
	instances := make([]uint32, 0, len(h.nodes))
	for i := range h.nodes {
		instances = append(instances, i)
	}
	sort.Slice(instances, func(i, j int) bool { return instances[i] < instances[j] })
	nodes := make([]*runtime.Node, 0, len(instances))
	for _, i := range instances {
		nodes = append(nodes, h.nodes[i])
	}
	h.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

// TCPNode hosts one protocol node behind a loopback (or LAN) TCP
// listener: a TCPHost with the single instance 0. Every node runs its own
// TCPNode — in one process for the tcpcluster example, or one per process
// in a real deployment.
type TCPNode struct {
	host   *TCPHost
	node   *runtime.Node
	handle *Session
	proxy  *runtime.Proxy // serves dialed clients; stopped with the host
}

// NewTCPNode constructs the protocol node via b and starts listening on a
// fresh loopback port. Peers are supplied afterwards with Connect, once
// every listener's Addr is known.
func NewTCPNode(id mutex.ID, b mutex.Builder, cfg mutex.Config, codec Codec) (*TCPNode, error) {
	return NewTCPNodeOn(id, "127.0.0.1:0", b, cfg, codec)
}

// NewTCPNodeOn is NewTCPNode with an explicit listen address, for real
// deployments whose address book is agreed in advance.
//
// Every TCPNode also serves dialed non-member clients (dagmutex.Dial):
// connections opening with the client handshake are proxied through the
// node's own session by a runtime.Proxy — one runtime.Slot with the
// lock service's default lease and cohort budget, swept once a second.
func NewTCPNodeOn(id mutex.ID, listen string, b mutex.Builder, cfg mutex.Config, codec Codec) (*TCPNode, error) {
	host, err := NewTCPHostOn(id, listen, codec)
	if err != nil {
		return nil, err
	}
	node, err := host.StartInstance(0, b, cfg)
	if err != nil {
		host.Close()
		return nil, err
	}
	proxy := runtime.NewProxy(node.Session(), 0)
	host.ServeClients(proxy)
	return &TCPNode{host: host, node: node, handle: node.Session(), proxy: proxy}, nil
}

// Addr returns the node's listen address, to be shared with peers.
func (t *TCPNode) Addr() string { return t.host.Addr() }

// ID returns the hosted node's identifier.
func (t *TCPNode) ID() mutex.ID { return t.host.ID() }

// Connect supplies the peer address book. It must be called before the
// first Acquire.
func (t *TCPNode) Connect(addrs map[mutex.ID]string) { t.host.Connect(addrs) }

// Session returns the blocking application API over the hosted node.
func (t *TCPNode) Session() *Session { return t.handle }

// Node exposes the hosted runtime node, for management operations.
func (t *TCPNode) Node() *runtime.Node { return t.node }

// WithNode runs fn on the protocol state machine while holding its
// handler lock (e.g. the DAG algorithm's StartInit). fn must not block
// on protocol progress.
func (t *TCPNode) WithNode(fn func(mutex.Node) error) error { return t.node.With(fn) }

// Acquire requests the critical section and blocks until granted, the
// cluster fails, or ctx expires. It returns the grant's fencing
// generation and local grant time.
func (t *TCPNode) Acquire(ctx context.Context) (runtime.Grant, error) { return t.handle.Acquire(ctx) }

// Release leaves the critical section.
func (t *TCPNode) Release() error { return t.handle.Release() }

// Err returns the first transport or protocol error observed, if any.
func (t *TCPNode) Err() error { return t.host.Err() }

// Stats returns messages sent and received by this node.
func (t *TCPNode) Stats() (sent, received int64) { return t.host.Stats() }

// Close shuts the listener and all connections down and waits for the
// node's goroutines to exit.
func (t *TCPNode) Close() {
	t.proxy.Close()
	t.host.Close()
}

// Host exposes the underlying TCPHost, for chaos wiring (injector,
// failure detection) before Connect.
func (t *TCPNode) Host() *TCPHost { return t.host }

// Kill crashes the node: its own session fails fast with
// runtime.ErrNodeDown and the host — listener, connections, writers —
// is torn down, so peers observe exactly what a killed process produces:
// connection resets and silence.
func (t *TCPNode) Kill() {
	t.node.MarkSelfDown()
	t.Close()
}

// TCPCluster wires one TCPNode per cluster member over loopback inside a
// single process: the TCP analogue of Local, used by tests, the
// conformance battery and the tcpcluster example. Real deployments run
// one TCPNode (or TCPHost) per process instead and exchange addresses out
// of band.
type TCPCluster struct {
	nodes  map[mutex.ID]*TCPNode
	inj    *failure.Injector
	killed map[mutex.ID]bool
	mu     sync.Mutex
}

// NewTCPCluster starts one TCP-backed node per cfg.IDs entry and
// distributes the address book. Callers must Close it.
func NewTCPCluster(b mutex.Builder, cfg mutex.Config, codec Codec) (*TCPCluster, error) {
	return newTCPCluster(b, cfg, codec, nil, nil)
}

// NewTCPClusterChaos is NewTCPCluster with the failure subsystem armed:
// every member host runs failure detection with fcfg, and the shared
// fault plan inj (which the caller keeps, to partition and heal) is
// consulted on every frame. Kill crashes individual members.
func NewTCPClusterChaos(b mutex.Builder, cfg mutex.Config, codec Codec, fcfg failure.Config, inj *failure.Injector) (*TCPCluster, error) {
	if inj == nil {
		inj = failure.NewInjector()
	}
	return newTCPCluster(b, cfg, codec, &fcfg, inj)
}

// NewTCPClusterWith is the options-first construction the dagmutex.Open
// facade uses: failure detection (nil = off) and the fault plan (nil =
// none) are independent, matching transport.Local's option set.
func NewTCPClusterWith(b mutex.Builder, cfg mutex.Config, codec Codec, fcfg *failure.Config, inj *failure.Injector) (*TCPCluster, error) {
	if fcfg != nil && inj == nil {
		inj = failure.NewInjector() // Kill needs a plan to silence the victim
	}
	return newTCPCluster(b, cfg, codec, fcfg, inj)
}

func newTCPCluster(b mutex.Builder, cfg mutex.Config, codec Codec, fcfg *failure.Config, inj *failure.Injector) (*TCPCluster, error) {
	c := &TCPCluster{nodes: make(map[mutex.ID]*TCPNode, len(cfg.IDs)), inj: inj, killed: make(map[mutex.ID]bool)}
	addrs := make(map[mutex.ID]string, len(cfg.IDs))
	for _, id := range cfg.IDs {
		n, err := NewTCPNode(id, b, cfg, codec)
		if err != nil {
			c.Close()
			return nil, err
		}
		if inj != nil {
			n.Host().SetInjector(inj)
		}
		if fcfg != nil {
			n.Host().EnableFailureDetection(*fcfg, cfg.IDs)
		}
		c.nodes[id] = n
		addrs[id] = n.Addr()
	}
	for _, n := range c.nodes {
		n.Connect(addrs)
	}
	return c, nil
}

// Injector returns the cluster's shared fault plan (nil unless built
// with NewTCPClusterChaos).
func (c *TCPCluster) Injector() *failure.Injector { return c.inj }

// Kill crashes member id: the fault plan silences it, then its host is
// torn down, so peers see connection resets — the same evidence a killed
// OS process produces — and their detectors mark it down immediately.
func (c *TCPCluster) Kill(id mutex.ID) error {
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("transport: unknown node %d", id)
	}
	c.mu.Lock()
	c.killed[id] = true
	c.mu.Unlock()
	if c.inj != nil {
		c.inj.Crash(id)
	}
	n.Kill()
	return nil
}

// Session returns the session for member id, or nil if the id is
// unknown.
func (c *TCPCluster) Session(id mutex.ID) *Session {
	n, ok := c.nodes[id]
	if !ok {
		return nil
	}
	return n.Session()
}

// Addr returns member id's listen address (for dagmutex.Dial), or "" for
// an unknown id.
func (c *TCPCluster) Addr(id mutex.ID) string {
	n, ok := c.nodes[id]
	if !ok {
		return ""
	}
	return n.Addr()
}

// SetClientQueue installs admission control q for dialed non-member
// clients on every member's listener. Connections accepted after the
// call use the new bounds.
func (c *TCPCluster) SetClientQueue(q ClientQueue) {
	for _, n := range c.nodes {
		n.Host().SetClientQueue(q)
	}
}

// ClientStats aggregates the dialed-client admission counters across
// all members.
func (c *TCPCluster) ClientStats() ClientStats {
	var total ClientStats
	for _, n := range c.nodes {
		s := n.Host().ClientStats()
		total.Conns += s.Conns
		total.Inflight += s.Inflight
		total.Admitted += s.Admitted
		total.ShedDepth += s.ShedDepth
		total.ShedRate += s.ShedRate
	}
	return total
}

// WithNode runs fn on member id's protocol state machine while holding
// its handler lock, for management operations such as the DAG
// algorithm's StartInit. fn must not block on protocol progress.
func (c *TCPCluster) WithNode(id mutex.ID, fn func(mutex.Node) error) error {
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("transport: unknown node %d", id)
	}
	return n.WithNode(fn)
}

// Messages returns the total frames sent across all members.
func (c *TCPCluster) Messages() int64 {
	var n int64
	for _, node := range c.nodes {
		s, _ := node.Stats()
		n += s
	}
	return n
}

// Err returns the first error observed by any live member, if any
// (killed members' teardown noise is theirs to keep).
func (c *TCPCluster) Err() error {
	for id, n := range c.nodes {
		c.mu.Lock()
		dead := c.killed[id]
		c.mu.Unlock()
		if dead {
			continue
		}
		if err := n.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every member node.
func (c *TCPCluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/runtime"
)

// This file is the member side of the CLIENT wire protocol: the framing
// that lets a process which is NOT a DAG vertex attach to a member over
// TCP and acquire/release through it. The client side lives in
// internal/client; the two share the frame layout defined here.
//
// # Client wire frames
//
// A client connection opens with an 8-byte handshake — the 4-byte magic
// "DAGC" followed by a big-endian uint32 protocol version (currently 4;
// a member hangs up on any other, so a client that could not read the
// hello below, or a run, never gets as far as being sent one).
// The magic doubles as the demultiplexer: member-to-member connections
// start with a frame-size header, and sizes are bounded by maxFrame
// (1 MiB), so the magic (0x44414743) can never be a valid size. One
// listener therefore serves both populations (TCPHost), and a
// standalone ClientGateway serves only clients.
//
// The server answers the handshake with an 8-byte hello:
//
//	[4B magic "DAGC"] [4B shards S]
//
// S > 0 says that the server's resources hash into S lock domains by
// ShardOf, that two resources of one domain are never held at once
// through this server, and that it grants runs (below). A lock-service
// member sends its Shards, a plain member's proxy (one mutex) 1, and a
// gateway the S its members named. S = 0 says the server grants no runs
// and every resource is to be treated as independent. A hello that is
// short, lacks the magic or names more than maxHelloShards shards fails
// the dial.
//
// After the hello, both directions speak length-prefixed frames:
//
//	[4B size] [1B op] [8B request id] [payload]     size = 9 + len(payload)
//
// Client → member ops:
//
//	opAcquire     payload = resource name ("" = the member's single mutex)
//	opTry         payload = resource name
//	opRelease     payload = [8B fence] ++ resource name (fence 0 = by name)
//	opCancel      request id names the acquire to cancel; empty payload
//	opAcquireRun  payload = resource name: an acquire with more callers of
//	              this connection queued behind it in the resource's lane
//	opReleaseRun  payload = [8B last fence][4B used][1B flags] ++ resource
//	              name: ends a run; flag bit 0 = the connection's next
//	              acquire for the lane has been sent
//
// Member → client ops (the request id echoes the request):
//
//	respGrant    payload = [8B fence][8B lease expiry, unix nanos, 0 = none]
//	respTry      payload = [1B granted][8B fence][8B expiry]
//	respOK       empty (release succeeded)
//	respErr      payload = [1B code] ++ message
//	respRun      payload = [8B first fence][8B lease expiry][4B run length]
//
// A run is a block of consecutive fences, first .. first+length-1, that
// the member reserved before it wrote the answer and holds as ONE hold
// under the last of them and one lease. Only an opAcquireRun is ever
// answered with respRun, and only by a server whose hello named S > 0
// (its backend is a RunBackend), which then answers every opAcquireRun
// that way, with a length of at least 1; any other server answers it
// with respGrant like an opAcquire, and a client told so never sends
// one. The client hands the run's fences to its own callers
// one after another and ends it — all fences used or not — with one
// opReleaseRun naming the last fence and how many it handed out. That
// count is advisory (it feeds the counters) and is cut down to the run's
// length, never trusted; a respRun of length 0, or an opReleaseRun
// shorter than its fixed fields, is a corrupted stream and ends the
// connection like an unknown op. A run needs no frame of its own to be
// given up: opRelease of its last fence, a cancel that the grant raced,
// and a disconnect all release the whole of it.
//
// Under a hello of S > 0 shards, the client keeps one lane per shard,
// not per resource: a run ordered for one resource is handed to
// the connection's callers on any resource of the same shard, which the
// server excludes while the run is held. Every frame the member reads
// still names the resource the hold was granted under — the end of a run
// names the resource that ordered it, whoever held its last fence — so
// the member sees exactly what it would without shard lanes. A gateway
// names its members' S and passes runs through: a marked acquire from
// one of its clients goes on to the domain's member as a marked acquire,
// and the run comes back whole. Both ends are machines: the dialing
// side's lane (see the package doc of internal/client), and here the
// connection's rules (ConnHolds) in front of the backend's hold machine
// (runtime.Hold), which the client's lane checker explores together.
//
// Error codes carry the sentinel across the wire so errors.Is works on
// the client side exactly as it does in process: not-held, lease-expired,
// try-unsupported, canceled, busy (per-client queue full), node-down;
// code 0 is a generic error delivered by message only.

// Client protocol constants, shared with internal/client.
const (
	// ClientMagic opens every client connection. As a big-endian uint32 it
	// exceeds maxFrame, so it is unambiguous against member frame sizes.
	ClientMagic = "DAGC"
	// ClientVersion is the protocol version sent after the magic.
	ClientVersion uint32 = 4
	// MaxClientFrame bounds client frames; resource names plus headers fit
	// comfortably.
	MaxClientFrame = 1 << 16
	// MaxClientInflight is the default per-connection queue bound (the
	// ClientQueue zero value): a client may have this many acquires
	// outstanding before the member sheds new ones with ErrClientBusy.
	// Cancels and releases are exempt — a client can always trim its own
	// queue and always give back what it holds (shedding a release would
	// increase contention, the opposite of backpressure's goal).
	MaxClientInflight = 64
)

// ClientQueue configures admission control for dialed clients: how much
// work one listener accepts before shedding with ErrClientBusy. The zero
// value keeps the historical behavior — MaxClientInflight requests per
// connection, no rate limit.
type ClientQueue struct {
	// Depth bounds in-flight acquires/tries per connection. 0 means
	// MaxClientInflight; negative means 1 (fully serialized clients).
	Depth int
	// Rate, when positive, caps admitted acquire/try requests per second
	// across ALL connections of the listener — a token bucket refilled
	// continuously. Requests beyond the rate are shed with ErrClientBusy
	// instead of queueing, which keeps latency for admitted requests
	// bounded when thousands of clients offer load at once. 0 or
	// negative disables rate limiting.
	Rate float64
	// Burst is the token bucket size — how far above the steady rate a
	// momentary spike may go. 0 or negative derives it from Rate
	// (one second's worth, at least 1). Ignored when Rate is disabled.
	Burst int
}

// ClientStats is a snapshot of one listener's client-tier counters. The
// snapshot is one consistent cut, not a field-by-field racing read: in
// every snapshot Inflight == Admitted - Answered.
type ClientStats struct {
	Conns     int64 // client connections currently open
	Inflight  int64 // acquires/tries admitted and not yet answered
	Admitted  int64 // total requests admitted since the listener started
	Answered  int64 // admitted requests that have completed (any outcome)
	ShedDepth int64 // requests shed because the per-connection queue was full
	ShedRate  int64 // requests shed by the admission rate limit
}

// Shed returns the total requests shed, on either trigger.
func (s ClientStats) Shed() int64 { return s.ShedDepth + s.ShedRate }

// admission is the shared gate in front of every client connection of
// one listener: the per-connection depth (enforced by each connection's
// semaphore, sized from here) plus a listener-wide token bucket and the
// counters behind ClientStats.
type admission struct {
	depth int
	rate  float64
	burst float64

	// One mutex guards the token bucket and every counter, so the
	// accounting for one request is a single transition and stats() is
	// a consistent cut. Rate-limited admissions already paid this lock
	// for the bucket; unlimited ones trade their two atomic RMWs for
	// one uncontended-in-practice lock hold.
	mu        sync.Mutex
	tokens    float64
	last      time.Time
	conns     int64
	inflight  int64
	admitted  int64
	answered  int64
	shedDepth int64
	shedRate  int64

	// writes counts the frames and write calls of every connection behind
	// this gate. Atomics outside mu: the response path takes no lock for
	// them.
	writes writeStats

	// Fence runs granted through this gate: how many, the fences they
	// reserved, and the fences their releases said were handed out.
	runs, runReserved, runUsed atomic.Int64
}

func newAdmission(q ClientQueue) *admission {
	a := &admission{depth: q.Depth, rate: q.Rate, burst: float64(q.Burst)}
	switch {
	case a.depth == 0:
		a.depth = MaxClientInflight
	case a.depth < 0:
		a.depth = 1
	}
	if a.rate <= 0 {
		a.rate = 0
	} else if a.burst <= 0 {
		a.burst = a.rate
		if a.burst < 1 {
			a.burst = 1
		}
	}
	a.tokens = a.burst
	return a
}

// admitOne takes one token from the bucket (refilled lazily from the
// elapsed wall clock) and, when admitted, records the admission — one
// lock hold covers both, so a request is either fully admitted or fully
// shed in every concurrent stats() snapshot. A rate reject burns no
// token.
func (a *admission) admitOne(now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rate > 0 {
		if !a.last.IsZero() {
			if elapsed := now.Sub(a.last).Seconds(); elapsed > 0 {
				a.tokens += elapsed * a.rate
				if a.tokens > a.burst {
					a.tokens = a.burst
				}
			}
		}
		a.last = now
		if a.tokens < 1 {
			a.shedRate++
			return false
		}
		a.tokens--
	}
	a.admitted++
	a.inflight++
	return true
}

// finish retires an admitted request: inflight and answered move in the
// same transition, keeping Inflight == Admitted - Answered invariant.
func (a *admission) finish() {
	a.mu.Lock()
	a.inflight--
	a.answered++
	a.mu.Unlock()
}

func (a *admission) shedFull() {
	a.mu.Lock()
	a.shedDepth++
	a.mu.Unlock()
}

func (a *admission) connDelta(d int64) {
	a.mu.Lock()
	a.conns += d
	a.mu.Unlock()
}

func (a *admission) stats() ClientStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ClientStats{
		Conns:     a.conns,
		Inflight:  a.inflight,
		Admitted:  a.admitted,
		Answered:  a.answered,
		ShedDepth: a.shedDepth,
		ShedRate:  a.shedRate,
	}
}

// Client frame ops.
const (
	OpAcquire    byte = 1
	OpTry        byte = 2
	OpRelease    byte = 3
	OpCancel     byte = 4
	OpAcquireRun byte = 5
	OpReleaseRun byte = 6

	RespGrant byte = 16
	RespTry   byte = 17
	RespOK    byte = 18
	RespErr   byte = 19
	RespRun   byte = 20
)

// ReleaseRunMore is the OpReleaseRun flag saying that the connection's
// next acquire for the lane has been sent (see RunBackend).
const ReleaseRunMore byte = 1

const (
	clientHelloSize = 8
	// maxHelloShards bounds the shard count a hello may name. A server
	// with more shards sends 0, which is always correct (no runs, and
	// resources treated as independent); a hello naming more is not a
	// server this package wrote.
	maxHelloShards = 1 << 16
)

// AppendClientHello appends the wire form of a hello naming shards to buf.
func AppendClientHello(buf []byte, shards int) []byte {
	return binary.BigEndian.AppendUint32(append(buf, ClientMagic...), uint32(shards))
}

// ReadClientHello reads and validates the hello a server sends after the
// handshake, and returns the shard count S it names. Anything but a
// well-formed hello is an error.
func ReadClientHello(r io.Reader) (shards int, err error) {
	var b [clientHelloSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("transport: read client hello: %w", err)
	}
	s := binary.BigEndian.Uint32(b[4:8])
	switch {
	case string(b[:4]) != ClientMagic:
		return 0, fmt.Errorf("transport: client hello opens with %q, not %q", b[:4], ClientMagic)
	case s > maxHelloShards:
		return 0, fmt.Errorf("transport: client hello names %d shards, more than %d", s, maxHelloShards)
	}
	return int(s), nil
}

// helloShards is the S a server fronting backend names in its hello: the
// backend's lock domains when it grants runs and a hello may carry the
// count, 0 otherwise.
func helloShards(backend ClientBackend) int {
	if rb, ok := backend.(RunBackend); ok {
		if n := rb.Shards(); n > 0 && n <= maxHelloShards {
			return n
		}
	}
	return 0
}

// ShardOf maps resource to one of n shards: 32-bit FNV-1a of the name,
// mod n. It is the stack's one key hash — a lock service's shard for a
// key, a gateway's member for it, and a dialed connection's lane for it
// under a hello of n shards — so no two of them can disagree.
func ShardOf(resource string, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(resource); i++ {
		h = (h ^ uint32(resource[i])) * prime32
	}
	return int(h % uint32(n))
}

// Wire error codes for respErr frames.
const (
	CodeGeneric        byte = 0
	CodeNotHeld        byte = 1
	CodeLeaseExpired   byte = 2
	CodeTryUnsupported byte = 3
	CodeCanceled       byte = 4
	CodeBusy           byte = 5
	CodeNodeDown       byte = 6
)

// ErrClientBusy reports a request shed because the client already has
// MaxClientInflight requests queued on the member — the backpressure
// signal. The member stays healthy; the client should drain or retry.
var ErrClientBusy = errors.New("transport: client request queue full")

// ClientBackend is what a member offers its dialed clients: blocking
// acquire/release of named resources, fences and lease deadlines
// included. Two members implement it over the same hold machine
// (runtime.Slot): runtime.Proxy serves a plain cluster member's single
// mutex (resource "") through one slot, and the lock service's adapter
// serves its whole keyed resource space through a slot per shard. The
// gateway implements it by forwarding. Implementations must be safe for
// concurrent use; Acquire must honor ctx. Hold-lifecycle failures are
// reported with runtime.ErrNotHeld and runtime.ErrLeaseExpired, which
// errorCode puts on the wire. These three methods are the whole
// contract; a backend may also offer RunBackend and ConnBackend, below.
type ClientBackend interface {
	Acquire(ctx context.Context, resource string) (fence uint64, expires time.Time, err error)
	TryAcquire(resource string) (fence uint64, expires time.Time, ok bool, err error)
	Release(resource string, fence uint64) error
}

// RunBackend is the optional capability of a ClientBackend whose
// resources share locks and which can grant a dialed connection a run: a
// block of consecutive fences under one lease, reserved before the
// answer is written, which the connection hands to its own queued
// callers — on any resource of the run's lock domain — one after another
// without a frame. The server side probes for it once per connection,
// the way core probes its Env for mutex.HopGranter, names Shards in its
// hello, and with S > 0 uses AcquireRun for acquires the client marked
// as having more callers queued behind them. runtime.Proxy has it (one
// mutex), the lock service's adapter (its shards), and the gateway's
// backend, which forwards runs to its members and names the S they
// named. A backend that merely wraps another in the three methods above
// lacks it; its hello then names 0, its clients send no marked acquire,
// and one that arrives anyway is an ordinary acquire, released with
// Release.
type RunBackend interface {
	// Shards is how many lock domains the backend's resources hash into:
	// resource r is in domain ShardOf(r, Shards()), and no two resources
	// of one domain are held at once through the backend. 0 says it
	// grants no runs for now, and the connection is served without them.
	Shards() int
	// AcquireRun is Acquire returning the first fence of a run of run
	// consecutive fences (run >= 1), all held under one lease; the hold
	// is known to the backend by its last fence.
	AcquireRun(ctx context.Context, resource string) (first uint64, expires time.Time, run int, err error)
	// ReleaseRun releases the run whose last fence is last. used says how
	// many of its fences callers actually held, more that the
	// connection's next acquire for resource has been sent: the backend
	// should hand over as it does to a queued waiter even if that acquire
	// has not reached it yet (the two travel through different workers).
	ReleaseRun(resource string, last uint64, used int, more bool) error
}

// ConnBackend is the optional capability of a ClientBackend that serves
// each connection through a view of its own: the server side calls
// ForConn once per connection, before the hello, and serves that
// connection — hello, requests and cleanup — through the backend it
// returns. The gateway's backend has it, to send all of one connection's
// requests for a lock domain to one member.
type ConnBackend interface {
	ForConn() ClientBackend
}

// CodedError attaches a wire error code to err, for backends whose
// sentinels the transport layer cannot know (the gateway's upstream
// busy signal). The demux unwraps it when encoding respErr frames;
// errorCode handles the runtime-level sentinels directly.
type CodedError struct {
	Code byte
	Err  error
}

func (e *CodedError) Error() string { return e.Err.Error() }
func (e *CodedError) Unwrap() error { return e.Err }

// errorCode picks the wire code for err: an explicit CodedError wins,
// then the runtime and context sentinels the transport layer knows.
func errorCode(err error) byte {
	if err == ErrClientBusy {
		// The admission shed path runs hot by design; the exact sentinel
		// needs no unwrapping (and no errors.As allocation).
		return CodeBusy
	}
	var ce *CodedError
	switch {
	case errors.As(err, &ce):
		return ce.Code
	case errors.Is(err, runtime.ErrNotHeld):
		return CodeNotHeld
	case errors.Is(err, runtime.ErrLeaseExpired):
		return CodeLeaseExpired
	case errors.Is(err, runtime.ErrTryUnsupported):
		return CodeTryUnsupported
	case errors.Is(err, runtime.ErrNodeDown):
		return CodeNodeDown
	case errors.Is(err, ErrClientBusy):
		return CodeBusy
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	default:
		return CodeGeneric
	}
}

// AppendClientFrame appends one client-protocol frame to buf and returns
// the extended slice. Both ends of the protocol use it, so the layout is
// defined exactly once.
func AppendClientFrame(buf []byte, op byte, reqID uint64, payload []byte) []byte {
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(9+len(payload)))
	hdr[4] = op
	binary.BigEndian.PutUint64(hdr[5:13], reqID)
	return append(append(buf, hdr[:]...), payload...)
}

// ReadClientFrame reads one client-protocol frame from r: the one frame
// decoder, used by both ends of the protocol. A connection hands in its
// *bufio.Reader and the frame is decoded where it lies — header and body
// are peeked, never copied, so the steady-state read path allocates
// nothing. The returned payload then aliases the reader's buffer and is
// valid only until the next read from r. A frame that does not fit the
// reader's buffer (a resource name of several KiB) or a reader that is
// not buffered (tests, probes) gets a body of its own instead: one
// allocation per frame, never more than MaxClientFrame bytes.
func ReadClientFrame(r io.Reader) (op byte, reqID uint64, payload []byte, err error) {
	br, _ := r.(*bufio.Reader)
	var hdr []byte
	if br != nil {
		if hdr, err = br.Peek(4); err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside a header
		}
	} else {
		hdr = make([]byte, 4)
		_, err = io.ReadFull(r, hdr)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size < 9 || size > MaxClientFrame {
		return 0, 0, nil, fmt.Errorf("transport: bad client frame size %d", size)
	}
	var b []byte
	if br != nil && 4+size <= br.Size() {
		if b, err = br.Peek(4 + size); err == nil {
			// The bytes are buffered, so Discard reads nothing and b stays
			// intact until the caller's next read.
			_, err = br.Discard(4 + size)
			b = b[4:]
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	} else {
		if br != nil {
			_, _ = br.Discard(4) // the header was only peeked
		}
		b = make([]byte, size)
		_, err = io.ReadFull(r, b)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return b[0], binary.BigEndian.Uint64(b[1:9]), b[9:], nil
}

// FrameWriter is the frame queue both ends of a CLIENT connection write
// through — the member side's responses here, the dialing side's requests
// in internal/client. It is peerConn, the writer member links use: a
// frame is encoded into a pooled buffer, joins the queue, and is written
// inline when the connection is idle; frames sent while a write is in
// progress queue up and leave together in one writev. Concurrent callers
// sharing a connection therefore cost one syscall per batch, not per
// frame, and frames reach the wire in the order SendClientFrame was
// called.
type FrameWriter = peerConn

// NewFrameWriter starts the writer for conn. Shutdown stops it.
func NewFrameWriter(conn net.Conn) *FrameWriter { return startFrameWriter(conn, nil) }

// startFrameWriter is NewFrameWriter counting frames and write calls
// into stats (nil: uncounted). A failed write severs conn, so the
// connection's reader notices and tears the rest down.
func startFrameWriter(conn net.Conn, stats *writeStats) *peerConn {
	pc := newPeerConn()
	pc.conn = conn
	pc.stats = stats
	pc.drained = make(chan struct{})
	go func() {
		defer close(pc.drained)
		_ = pc.drain()
	}()
	return pc
}

// SendClientFrame queues one frame whose payload is head followed by
// tail, and writes the queue inline when the connection is idle. After
// Shutdown, or once a write has failed, frames are dropped.
func (pc *peerConn) SendClientFrame(op byte, reqID uint64, head []byte, tail string) {
	if pc.accept(clientFrame(op, reqID, head, tail), false) {
		_ = pc.flush() // a failed write has severed the connection
	}
}

// QueueClientFrame is SendClientFrame that never writes inline: the
// frame joins the queue and the drain goroutine writes it. It never
// blocks, so a connection's reader may call it, under its own locks, to
// send what an answer calls for without waiting for the peer to read.
func (pc *peerConn) QueueClientFrame(op byte, reqID uint64, head []byte, tail string) {
	pc.accept(clientFrame(op, reqID, head, tail), true)
}

// clientFrame builds one client frame in a pooled buffer.
func clientFrame(op byte, reqID uint64, head []byte, tail string) *frame {
	f := framePool.Get().(*frame)
	b := AppendClientFrame(f.b[:0], op, reqID, head)
	if tail != "" {
		b = append(b, tail...)
		binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-4))
	}
	f.b = b
	return f
}

// Shutdown drops whatever is still queued and waits for the drain
// goroutine to exit. Close the connection first if a write may be stuck
// against a peer that stopped reading.
func (pc *peerConn) Shutdown() {
	pc.shutdown()
	<-pc.drained
}

// Per-connection bounds on what the server side keeps between requests.
// All three are sized to the traffic a connection actually carries, never
// to ClientQueue.Depth (a member behind a gateway sets that to 1<<20).
const (
	// maxIdleWorkers caps the workers one connection keeps parked; a
	// worker finishing beyond it exits, and a burst deeper than the parked
	// set starts fresh goroutines exactly as every request used to.
	maxIdleWorkers = MaxClientInflight
	// maxFreeRequests caps the connection's request free list.
	maxFreeRequests = MaxClientInflight
	// maxInternedNames and maxInternedLen bound the resource-name intern
	// table: names longer than the second are never kept, and a table
	// that reaches the first is dropped whole, so a shifting working set
	// re-interns instead of pinning the first names it ever saw.
	maxInternedNames = 1024
	maxInternedLen   = 128
)

// clientConn is one dialed client's server-side state: a batched
// response writer over the shared connection, parked workers that run
// the requests, the in-flight acquire table (for cancels), the holds
// table (for disconnect cleanup), the inflight semaphore (per-connection
// backpressure) and the listener's shared admission gate.
type clientConn struct {
	out *peerConn // pooled-frame response queue + its drain goroutine

	backend ClientBackend
	runs    RunBackend // backend's optional run capability, probed once; nil without it or under a hello of 0
	sem     chan struct{}
	adm     *admission

	// work hands a request to a parked worker. It is unbuffered, so a
	// non-blocking send succeeds only when a worker is waiting; otherwise
	// the reader starts a new one. Closed by the reader on teardown, which
	// is what sends the parked workers home.
	work chan *clientReq
	idle atomic.Int32 // workers parked on (or about to park on) work
	wg   sync.WaitGroup

	// names interns resource names, so a frame naming a resource this
	// connection has used before costs no string. Reader goroutine only.
	names map[string]string

	mu    sync.Mutex
	reqs  map[uint64]*clientReq // in-flight acquires by request id
	holds ConnHolds
	free  []*clientReq // recycled requests, at most maxFreeRequests
}

// ConnHolds is what a client connection's server side decides for
// itself; every other decision about a hold is the backend's hold
// machine (runtime.Hold). It keeps the holds the connection owns, by
// resource, so that teardown releases them; it sends a grant that lost
// to its cancel or to the disconnect straight back; and it cuts a
// ReleaseRun's used down to what the connection holds under that fence.
// Sockets, workers, the free list and admission stay in clientConn,
// which calls it under its lock. It is exported, state and all, for the
// dialing side's lane checker, which runs the same rules against the
// same machine and keeps its states encoded.
type ConnHolds struct {
	Holds  map[string]ConnHold
	Closed bool
}

// ConnHold is one hold a connection owns: the fence its release names (a
// run's last) and how many fences it covers.
type ConnHold struct {
	Fence uint64
	Run   uint32
}

// Granted decides what becomes of hold h, granted to an acquire of
// resource: the connection owns it and answers the grant, unless the
// acquire lost to its cancel or the connection has closed. The client no
// longer listens for that grant, so it goes straight back, released
// under h.Fence, and the acquire is answered as canceled.
func (c *ConnHolds) Granted(resource string, h ConnHold, canceled bool) (answer, back bool) {
	if canceled || c.Closed {
		return false, true
	}
	if c.Holds == nil {
		c.Holds = make(map[string]ConnHold)
	}
	c.Holds[resource] = h
	return true, false
}

// Ended forgets the hold a release of resource under fence (0: by name)
// ends: whatever the backend says, the connection no longer owns it —
// released, expired, or already gone. It returns a ReleaseRun's used as
// far as it can be believed: no more than the connection was granted
// under fence, and none for a fence it does not hold.
func (c *ConnHolds) Ended(resource string, fence uint64, used uint32) uint32 {
	h, ok := c.Holds[resource]
	if ok && (fence == 0 || h.Fence == fence) {
		delete(c.Holds, resource)
	}
	if !ok || h.Fence != fence {
		return 0
	}
	return min(used, h.Run)
}

// Close marks the connection closed and returns the holds it owned, for
// teardown to release.
func (c *ConnHolds) Close() map[string]ConnHold {
	holds := c.Holds
	c.Holds, c.Closed = nil, true
	return holds
}

// clientReq is one request on its way through a worker, and — for an
// acquire — the context.Context the backend runs it under: no
// context.WithCancel, no cancel closure, nothing allocated per request.
//
// Ownership: the reader takes a request off the connection's free list
// (or makes one), fills the fields below and hands it to exactly one
// worker; from then on that worker owns it. An acquire is also reachable
// through clientConn.reqs, but only so that cancel can find it, and only
// under clientConn.mu. The worker returns the request to the free list
// in the same critical section that removes it from reqs, after copying
// out what the response needs, so a CANCEL frame can never reach a
// request that has moved on to another request id. A request that was
// really canceled is dropped instead of recycled: done stays closed for
// the rest of its life, which is what lets Done hand the same channel to
// every caller without synchronization.
type clientReq struct {
	op       byte
	reqID    uint64
	resource string
	fence    uint64 // OpRelease, OpReleaseRun
	used     uint32 // OpReleaseRun: fences of the run that were handed out
	more     bool   // OpReleaseRun: the connection's next acquire has been sent

	done     chan struct{} // closed by cancel, never replaced
	canceled atomic.Bool   // set before done closes
}

// clientReq implements context.Context with no deadline and no values.

func (r *clientReq) Deadline() (time.Time, bool) { return time.Time{}, false }
func (r *clientReq) Done() <-chan struct{}       { return r.done }
func (r *clientReq) Value(any) any               { return nil }

func (r *clientReq) Err() error {
	if r.canceled.Load() {
		return context.Canceled
	}
	return nil
}

// cancel ends the request's context. Callers hold clientConn.mu, which
// both makes the close happen once and keeps the request from being
// recycled underneath it.
func (r *clientReq) cancel() {
	if !r.canceled.Swap(true) {
		close(r.done)
	}
}

// errDuplicateRequest answers an acquire that reuses the id of one still
// in flight on the same connection.
var errDuplicateRequest = errors.New("transport: request id already in flight on this connection")

// respond writes one frame back to the client through the connection's
// batched writer: the frame is encoded into a pooled buffer and either
// written inline (idle connection — the common case) or queued for the
// drain goroutine, which gathers responses piled up behind a busy write
// into one writev. The steady-state response path allocates nothing and
// concurrent grants to one client cost one syscall per batch, not per
// frame. Write failures just end the connection (the reader will
// notice); they are never cluster-fatal.
func (cc *clientConn) respond(op byte, reqID uint64, payload []byte) {
	cc.out.SendClientFrame(op, reqID, payload, "")
}

// respondErr answers with a respErr frame — code byte, then the message —
// through the same pooled path, so the shed path (the whole point of
// admission control is that it runs hot) allocates nothing either.
func (cc *clientConn) respondErr(reqID uint64, err error) {
	code := [1]byte{errorCode(err)}
	cc.out.SendClientFrame(RespErr, reqID, code[:], err.Error())
}

// serveClientConn speaks the member side of the client protocol on conn,
// with the handshake already consumed (r may hold bytes read past it):
// it writes the hello, then serves requests until the client hangs up or
// the listener that accepted conn closes it
// — TCPHost.Close and ClientGateway.Close both sever every connection
// they accepted, which is what ends the read below. On exit every
// in-flight acquire is canceled and every hold the connection still owns
// is released: a vanished client never parks a token. In the steady
// state the loop allocates nothing: frames are decoded in the reader's
// buffer, resource names are interned per connection, requests come off
// the connection's free list and run on its parked workers. What still
// allocates is what is new to the connection — a name it has not seen, a
// burst deeper than its parked workers and free list — and the aftermath
// of a real cancel.
func serveClientConn(r *bufio.Reader, conn net.Conn, backend ClientBackend, adm *admission) {
	if cb, ok := backend.(ConnBackend); ok {
		backend = cb.ForConn()
	}
	shards := helloShards(backend)
	if _, err := conn.Write(AppendClientHello(nil, shards)); err != nil {
		_ = conn.Close()
		return
	}
	cc := &clientConn{
		out:     startFrameWriter(conn, &adm.writes),
		backend: backend,
		sem:     make(chan struct{}, adm.depth),
		adm:     adm,
		work:    make(chan *clientReq),
		names:   make(map[string]string),
		reqs:    make(map[uint64]*clientReq),
	}
	if shards > 0 {
		cc.runs = backend.(RunBackend)
	}
	adm.connDelta(1)
	defer func() {
		cc.teardown()
		close(cc.work)
		_ = conn.Close() // before the waits: unblocks a write to a client that stopped reading
		cc.out.Shutdown()
		cc.wg.Wait()
		adm.connDelta(-1)
	}()
	for {
		op, reqID, payload, err := ReadClientFrame(r)
		if err != nil {
			return
		}
		switch op {
		case OpAcquire, OpTry, OpAcquireRun:
			cc.start(op, reqID, cc.intern(payload), 0, 0, false)
		case OpRelease:
			if len(payload) < 8 {
				return // corrupted stream
			}
			cc.start(op, reqID, cc.intern(payload[8:]), binary.BigEndian.Uint64(payload[:8]), 1, false)
		case OpReleaseRun:
			if len(payload) < 13 {
				return // corrupted stream
			}
			cc.start(op, reqID, cc.intern(payload[13:]), binary.BigEndian.Uint64(payload[:8]),
				binary.BigEndian.Uint32(payload[8:12]), payload[12]&ReleaseRunMore != 0)
		case OpCancel:
			cc.cancelRequest(reqID)
		default:
			return // unknown op: corrupted stream
		}
	}
}

// intern returns name as a string, reusing the one this connection
// already holds for it (the map lookup keyed by string(name) does not
// allocate).
func (cc *clientConn) intern(name []byte) string {
	if s, ok := cc.names[string(name)]; ok {
		return s
	}
	s := string(name)
	if len(s) <= maxInternedLen {
		if len(cc.names) >= maxInternedNames {
			clear(cc.names)
		}
		cc.names[s] = s
	}
	return s
}

// admit reserves an inflight slot, shedding the request with CodeBusy
// when the per-client queue is full or the listener's admission rate is
// exceeded. The depth check runs first and is undone on a rate reject,
// so a shed request burns no token and frees no one else's slot.
func (cc *clientConn) admit(reqID uint64) bool {
	select {
	case cc.sem <- struct{}{}:
	default:
		cc.adm.shedFull()
		cc.respondErr(reqID, ErrClientBusy)
		return false
	}
	if !cc.adm.admitOne(time.Now()) {
		<-cc.sem
		cc.respondErr(reqID, ErrClientBusy)
		return false
	}
	return true
}

// done returns an admitted request's inflight slot.
func (cc *clientConn) done() {
	<-cc.sem
	cc.adm.finish()
}

// start admits one request and runs it off the reader goroutine: an
// acquire may block for a long time, and one client's queued acquire
// must not stop its own releases (or cancels) from being read. Releases
// are exempt from the inflight bound: they complete quickly, always
// shrink member state, and must stay available to a client whose acquire
// queue is full. An acquire whose id is still in flight is refused and
// the original left alone — taking its place in reqs would put the first
// acquire beyond the reach of its own cancel.
func (cc *clientConn) start(op byte, reqID uint64, resource string, fence uint64, used uint32, more bool) {
	acquire := op == OpAcquire || op == OpAcquireRun
	if (acquire || op == OpTry) && !cc.admit(reqID) {
		return
	}
	cc.mu.Lock()
	if acquire && cc.reqs[reqID] != nil {
		cc.mu.Unlock()
		cc.done()
		cc.respondErr(reqID, errDuplicateRequest)
		return
	}
	var req *clientReq
	if n := len(cc.free); n > 0 {
		req, cc.free = cc.free[n-1], cc.free[:n-1]
	} else {
		req = &clientReq{done: make(chan struct{})}
	}
	req.op, req.reqID, req.resource, req.fence, req.used, req.more = op, reqID, resource, fence, used, more
	if acquire {
		cc.reqs[reqID] = req
	}
	cc.mu.Unlock()
	select {
	case cc.work <- req:
	default:
		cc.wg.Add(1)
		go cc.worker(req)
	}
}

// worker runs req, then parks for the next request the reader hands
// over; it exits when the connection tears down or enough workers are
// parked already.
func (cc *clientConn) worker(req *clientReq) {
	defer cc.wg.Done()
	for req != nil {
		switch req.op {
		case OpAcquire, OpAcquireRun, OpTry:
			cc.acquire(req)
		case OpRelease, OpReleaseRun:
			cc.release(req)
		}
		if cc.idle.Add(1) > maxIdleWorkers {
			cc.idle.Add(-1)
			return
		}
		req = <-cc.work // nil once the reader has closed it
		cc.idle.Add(-1)
	}
}

// recycle ends the worker's ownership of req. Callers hold cc.mu and
// have copied out every field they still need.
func (cc *clientConn) recycle(req *clientReq) {
	if !req.canceled.Load() && len(cc.free) < maxFreeRequests {
		req.resource = ""
		cc.free = append(cc.free, req)
	}
}

// acquire runs one acquire or try. A marked acquire (OpAcquireRun)
// asks a backend with the run capability for a run and is answered with
// RespRun, the run's first fence and its length; every other acquire is
// answered with RespGrant as it always was, and a try with RespTry.
// Either way the connection owns one hold, under the (last) fence its
// release will name.
func (cc *clientConn) acquire(req *clientReq) {
	reqID, resource, try := req.reqID, req.resource, req.op == OpTry
	var fence uint64
	var expires time.Time
	var err error
	run, ok := 0, true // run: fences of a RespRun answer, 0 for any other; ok: a try got the section
	switch {
	case try:
		fence, expires, ok, err = cc.backend.TryAcquire(resource)
	case req.op == OpAcquireRun && cc.runs != nil:
		fence, expires, run, err = cc.runs.AcquireRun(req, resource)
	default:
		fence, expires, err = cc.backend.Acquire(req, resource)
	}
	held := ConnHold{Fence: fence + uint64(max(run, 1)-1), Run: uint32(max(run, 1))}
	answer, back := true, false
	cc.mu.Lock()
	if !try {
		delete(cc.reqs, reqID)
	}
	if err == nil && ok {
		answer, back = cc.holds.Granted(resource, held, req.canceled.Load())
	}
	cc.recycle(req)
	cc.mu.Unlock()
	cc.done()
	if back {
		_ = cc.backend.Release(resource, held.Fence)
	}
	var buf [21]byte
	b, op := buf[:0], RespGrant
	switch {
	case !answer:
		cc.respondErr(reqID, context.Canceled)
		return
	case err != nil:
		cc.respondErr(reqID, err)
		return
	case try:
		b, op = append(b, 0), RespTry
		if ok {
			b[0] = 1
		}
	case run > 0:
		cc.adm.runs.Add(1)
		cc.adm.runReserved.Add(int64(run))
		op = RespRun
	}
	b = binary.BigEndian.AppendUint64(b, fence)
	b = binary.BigEndian.AppendUint64(b, expiryNanos(expires))
	if run > 0 {
		b = binary.BigEndian.AppendUint32(b, uint32(run))
	}
	cc.respond(op, reqID, b)
}

// release runs one release. An end-of-run report (OpReleaseRun) is
// passed on only as far as it can be believed: used is cut down to what
// this connection was actually granted under that fence.
func (cc *clientConn) release(req *clientReq) {
	reqID, resource, fence, more := req.reqID, req.resource, req.fence, req.more
	run := req.op == OpReleaseRun && cc.runs != nil
	cc.mu.Lock()
	used := cc.holds.Ended(resource, fence, req.used)
	cc.recycle(req)
	cc.mu.Unlock()
	var err error
	if run {
		cc.adm.runUsed.Add(int64(used))
		err = cc.runs.ReleaseRun(resource, fence, int(used), more)
	} else {
		err = cc.backend.Release(resource, fence)
	}
	if err != nil {
		cc.respondErr(reqID, err)
		return
	}
	cc.respond(RespOK, reqID, nil)
}

// cancelRequest propagates a client's context cancellation into the
// member's queue: a queued acquire aborts, an already-granted one will
// be handed back by its own worker (which sees the canceled flag).
func (cc *clientConn) cancelRequest(reqID uint64) {
	cc.mu.Lock()
	if req, ok := cc.reqs[reqID]; ok {
		req.cancel()
	}
	cc.mu.Unlock()
}

// teardown cancels every in-flight acquire and releases every hold the
// connection still owns.
func (cc *clientConn) teardown() {
	cc.mu.Lock()
	holds := cc.holds.Close()
	for _, r := range cc.reqs {
		r.cancel()
	}
	cc.mu.Unlock()
	for resource, held := range holds {
		_ = cc.backend.Release(resource, held.Fence)
	}
}

func expiryNanos(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.UnixNano())
}

// ClientGateway is a standalone listener speaking only the client
// protocol — the front door for clusters whose members communicate over
// a non-TCP substrate (transport.Local). A TCPHost needs no gateway: its
// member listener demultiplexes client connections by the handshake
// magic.
type ClientGateway struct {
	ln      net.Listener
	backend ClientBackend
	adm     *admission

	// conns are the accepted connections still being served; Close severs
	// them, which is what ends their serving goroutines.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewClientGateway listens on listen ("" for a fresh loopback port) and
// serves dialed clients through backend, with default admission
// (ClientQueue zero value).
func NewClientGateway(listen string, backend ClientBackend) (*ClientGateway, error) {
	return NewClientGatewayWith(listen, backend, ClientQueue{})
}

// NewClientGatewayWith is NewClientGateway with explicit admission
// control: q's depth bounds each connection's in-flight requests, and
// its rate/burst token bucket is shared across every connection the
// gateway accepts.
func NewClientGatewayWith(listen string, backend ClientBackend, q ClientQueue) (*ClientGateway, error) {
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: client gateway: %w", err)
	}
	g := &ClientGateway{ln: ln, backend: backend, adm: newAdmission(q), conns: make(map[net.Conn]struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if !g.track(conn) {
				_ = conn.Close()
				return
			}
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				defer g.untrack(conn)
				if !readClientHandshake(conn) {
					_ = conn.Close()
					return
				}
				serveClientConn(bufio.NewReader(conn), conn, g.backend, g.adm)
			}()
		}
	}()
	return g, nil
}

// track registers an accepted connection for Close to sever. It reports
// false once Close has swept the set: a connection registered after that
// would never be closed and its goroutine would block Close forever.
func (g *ClientGateway) track(conn net.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.conns[conn] = struct{}{}
	return true
}

func (g *ClientGateway) untrack(conn net.Conn) {
	g.mu.Lock()
	delete(g.conns, conn)
	g.mu.Unlock()
}

// Addr returns the gateway's listen address, for clients to Dial.
func (g *ClientGateway) Addr() string { return g.ln.Addr().String() }

// Stats snapshots the gateway's client-tier counters.
func (g *ClientGateway) Stats() ClientStats { return g.adm.stats() }

// Close stops the listener and severs every client connection, releasing
// the holds they owned.
func (g *ClientGateway) Close() {
	_ = g.ln.Close()
	g.mu.Lock()
	g.closed = true
	for conn := range g.conns {
		_ = conn.Close()
	}
	g.mu.Unlock()
	g.wg.Wait()
}

// readClientHandshake consumes and validates the 8-byte client handshake
// (the caller has not read any bytes yet).
func readClientHandshake(conn net.Conn) bool {
	var hs [8]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return false
	}
	return string(hs[0:4]) == ClientMagic && binary.BigEndian.Uint32(hs[4:8]) == ClientVersion
}

// Package mutex defines the abstractions shared by every distributed
// mutual-exclusion protocol in this repository: node identifiers, wire
// messages, the environment through which a protocol interacts with the
// outside world, and the Node interface each protocol implements.
//
// A protocol node is a purely event-driven state machine. It never blocks:
// the paper's "wait until PRIVILEGE message is received" is modeled as an
// explicit requesting state. Handlers (Request, Release, Deliver) are always
// invoked in local mutual exclusion — the simulator delivers events one at a
// time, and the live runtime serializes calls with a per-node lock — which
// matches the execution model assumed by the thesis (each node executes P1
// and P2 in local mutual exclusion).
package mutex

import (
	"errors"
	"fmt"
)

// ID identifies a node. Valid node identifiers are positive; Nil (zero)
// plays the role of the paper's "0" value for NEXT and FOLLOW pointers.
type ID int32

// Nil is the null node identifier (the paper's 0).
const Nil ID = 0

// Message is a protocol message travelling between nodes.
type Message interface {
	// Kind returns a short stable name for the message type, such as
	// "REQUEST" or "PRIVILEGE". Kinds are used for accounting and traces.
	Kind() string
	// Size returns the number of payload bytes the message would occupy on
	// the wire, excluding transport framing. The thesis's storage analysis
	// counts a REQUEST as two integers and a PRIVILEGE as empty; Size makes
	// that accounting executable.
	Size() int
}

// Env is the surface through which a protocol node acts on the world.
// Implementations are provided by the simulator driver and by the live
// runtime; protocols never construct one.
type Env interface {
	// Send transmits m to the node identified by to. Delivery is reliable
	// and FIFO per (sender, receiver) pair, per the paper's system model.
	Send(to ID, m Message)
	// Granted reports that the node's pending Request has been granted and
	// the application now holds the critical section. The application must
	// eventually call Release on the node.
	//
	// gen is the grant's fencing generation: a number that strictly
	// increases across successive grants of one critical section, so
	// downstream systems can reject writes from a holder whose grant has
	// since been superseded. Token-based protocols carry the counter with
	// the token (the DAG algorithm's extended PRIVILEGE); protocols that
	// provide no fencing pass 0, which consumers must treat as "no token".
	Granted(gen uint64)
}

// TryRequester is an optional capability of protocol nodes that can
// report, without sending any message, whether a request would be granted
// immediately. Under the paper's model a request cannot be cancelled once
// issued, so a non-blocking TryAcquire is only possible for protocols
// that can answer locally — e.g. a token holder sitting on an idle token.
// TryRequest either performs the immediate grant (calling Env.Granted
// before returning true) or leaves the node's state completely untouched
// and returns false.
type TryRequester interface {
	// TryRequest grants the critical section if that is possible without
	// network traffic, reporting whether it did. It returns
	// ErrOutstanding if a request is already pending or the node is in
	// its critical section.
	TryRequest() (granted bool, err error)
}

// ReleaseRequester is an optional capability of protocol nodes that can
// fuse a release with an immediate re-request — the pipelined token
// handoff. A fused implementation may piggyback the re-request on the
// outgoing token message when the two would travel the same channel
// back to back, halving the handoff's message count; it must be
// observationally equivalent to Release followed by Request. Callers
// fall back to that exact pair when the capability is absent.
type ReleaseRequester interface {
	// ReleaseRequest leaves the critical section and re-requests it in
	// one step. A release error is returned before the request is
	// issued; a request error leaves the release done.
	ReleaseRequest() error
}

// Regranter is an optional capability of protocol nodes that can hand
// the critical section to another local claimant without leaving it —
// the cohort handoff. A successful Regrant issues a fresh grant
// (Env.Granted with the next fencing generation) while the node, as far
// as any peer can observe, simply remains in its critical section: no
// message is sent and no protocol state changes. Callers that batch
// local claimants this way bypass remote requesters already queued, so
// they must bound consecutive regrants to keep the protocol's
// starvation-freedom.
type Regranter interface {
	// Regrant re-issues the critical section locally, reporting whether
	// it did. False with a nil error means the handoff is currently
	// unavailable (for example mid-recovery) and the caller should
	// release normally; ErrNotInCS reports a Regrant without a hold.
	Regrant() (granted bool, err error)
}

// Reorienter is an optional capability of protocol nodes that can
// reshape the protocol's routing structure around an observed hot spot
// without moving the token or advancing the fencing generation — the
// planned counterpart of crash recovery. A successful PlanReorient
// starts an asynchronous reshape epoch; requests in flight when it
// starts are re-queued by the reshape, so no grant is lost and fencing
// stays strictly monotonic. Only the node that currently possesses the
// token may plan a reshape (anyone else returns false), which also
// guarantees the reshape can never regenerate a token.
type Reorienter interface {
	// PlanReorient plans a reshape that shortens paths toward hot,
	// reporting whether a reshape epoch was started. False with a nil
	// error means the reshape is currently unavailable — this node does
	// not hold the token, a recovery or earlier reshape is still in
	// flight, or the cluster lacks a quorum — and the caller may simply
	// retry later. An unknown or dead target is an error.
	PlanReorient(hot ID) (planned bool, err error)
}

// HopGranter is an optional capability of Env implementations that want
// the request path length behind each grant. A protocol that tracks how
// many hops the granted REQUEST travelled calls GrantedHops instead of
// Granted when the environment supports it; hops is 0 for grants that
// required no network traffic (an idle holder entering directly, a
// cohort regrant). The two calls are otherwise identical, and protocols
// without hop accounting just call Granted.
type HopGranter interface {
	// GrantedHops is Env.Granted plus the number of protocol messages
	// the granted request travelled before the token was dispatched.
	GrantedHops(gen uint64, hops int)
}

// MembershipHandler is an optional capability of protocol nodes that can
// survive membership changes: a failure detector (or an operator) reports
// a peer as crashed with PeerDown, and as returned with PeerUp. Both are
// invoked under the same local mutual exclusion as the other handlers.
// Protocols without this capability treat a dead peer as fatal: the
// runtime surfaces the death as a cluster error instead.
type MembershipHandler interface {
	// PeerDown reports that dead is believed to have crashed. The protocol
	// repairs itself so the surviving nodes keep making progress (for the
	// DAG algorithm: excise the peer, reorient the DAG, and regenerate the
	// token if it was lost with the peer).
	PeerDown(dead ID) error
	// PeerUp reports that a previously-down peer is heard from again, so
	// the protocol can re-admit it.
	PeerUp(peer ID) error
}

// Node is a protocol instance running at one site.
//
// The contract follows the paper's model: at most one outstanding request
// per node, so Request must not be called again until the previous request
// has been granted (Env.Granted) and released (Release).
type Node interface {
	// ID returns the node's identifier.
	ID() ID
	// Request asks the protocol to acquire the critical section on behalf
	// of the local application. If the node can enter immediately (for
	// example, it already holds an idle token) the implementation calls
	// Env.Granted before returning. It returns an error if a request is
	// already outstanding or the node is already in its critical section.
	Request() error
	// Release reports that the local application has left the critical
	// section. It returns an error if the node is not in its critical
	// section.
	Release() error
	// Deliver processes a protocol message previously sent to this node.
	// from is the transport-level sender.
	Deliver(from ID, m Message) error
	// Storage reports the node's current control-state footprint, used by
	// the storage-overhead experiment (thesis §6.4).
	Storage() Storage
}

// Storage describes the control-state footprint of a node (or, with only
// Bytes set, of a message). Scalars counts simple variables such as the
// DAG algorithm's HOLDING, NEXT and FOLLOW; ArrayEntries counts per-node
// array slots such as Suzuki–Kasami's RN vector; QueueEntries counts
// dynamically queued items such as Raymond's local request queue.
type Storage struct {
	Scalars      int
	ArrayEntries int
	QueueEntries int
	Bytes        int
}

// Add returns the element-wise sum of s and o.
func (s Storage) Add(o Storage) Storage {
	return Storage{
		Scalars:      s.Scalars + o.Scalars,
		ArrayEntries: s.ArrayEntries + o.ArrayEntries,
		QueueEntries: s.QueueEntries + o.QueueEntries,
		Bytes:        s.Bytes + o.Bytes,
	}
}

// Max returns the element-wise maximum of s and o.
func (s Storage) Max(o Storage) Storage {
	return Storage{
		Scalars:      max(s.Scalars, o.Scalars),
		ArrayEntries: max(s.ArrayEntries, o.ArrayEntries),
		QueueEntries: max(s.QueueEntries, o.QueueEntries),
		Bytes:        max(s.Bytes, o.Bytes),
	}
}

// String renders the footprint compactly, e.g. "3 scalars, 0 array, 0 queued (12B)".
func (s Storage) String() string {
	return fmt.Sprintf("%d scalars, %d array, %d queued (%dB)",
		s.Scalars, s.ArrayEntries, s.QueueEntries, s.Bytes)
}

// Config carries the cluster-wide parameters a protocol needs at
// construction time. Fields irrelevant to a given protocol are ignored by
// its Builder; Builders validate the fields they require.
type Config struct {
	// IDs lists every node in the cluster in ascending order. A Builder
	// may keep the slice instead of copying it (the DAG node does: at a
	// thousand members a copy per node is most of the cluster's memory),
	// so every node built from one Config can share it and nobody may
	// write to it once it has been handed to a Builder.
	IDs []ID
	// Holder is the initial token holder for token-based protocols and the
	// coordinator for the centralized scheme.
	Holder ID
	// Parent maps each node to its logical-tree neighbor on the path toward
	// Holder; Parent[Holder] is absent (treated as Nil). Tree-structured
	// protocols (the DAG algorithm, Raymond) require it.
	Parent map[ID]ID
	// Neighbors is the undirected adjacency of the logical tree, required
	// only by protocols that derive their own orientation at runtime (the
	// DAG algorithm's Figure 5 INIT procedure).
	Neighbors map[ID][]ID
	// Quorums maps each node to its request set for quorum-based protocols
	// (Maekawa). Each quorum must contain the node itself.
	Quorums map[ID][]ID
}

// Builder constructs a protocol node. Each algorithm package exports one.
type Builder func(id ID, env Env, cfg Config) (Node, error)

// Common construction and contract errors shared across protocol packages.
var (
	// ErrOutstanding reports a Request while one is already pending or the
	// node is in its critical section (the paper allows at most one
	// outstanding request per node).
	ErrOutstanding = errors.New("mutex: request already outstanding")
	// ErrNotInCS reports a Release without a matching grant.
	ErrNotInCS = errors.New("mutex: release outside critical section")
	// ErrUnexpectedMessage reports a message that the protocol state
	// machine cannot accept (for example a PRIVILEGE at a node that never
	// requested). Under the paper's assumptions this indicates a bug.
	ErrUnexpectedMessage = errors.New("mutex: unexpected protocol message")
	// ErrBadConfig reports an invalid Config passed to a Builder.
	ErrBadConfig = errors.New("mutex: invalid configuration")
)

// ValidateIDs checks that ids is non-empty, strictly ascending and all
// positive, and that member (if non-Nil) is present. Builders use it to
// validate Config.IDs.
func ValidateIDs(ids []ID, member ID) error {
	if len(ids) == 0 {
		return fmt.Errorf("%w: empty ID list", ErrBadConfig)
	}
	prev := Nil
	found := false
	for _, id := range ids {
		if id <= Nil {
			return fmt.Errorf("%w: non-positive ID %d", ErrBadConfig, id)
		}
		if id <= prev {
			return fmt.Errorf("%w: IDs not strictly ascending at %d", ErrBadConfig, id)
		}
		if id == member {
			found = true
		}
		prev = id
	}
	if member != Nil && !found {
		return fmt.Errorf("%w: node %d not in ID list", ErrBadConfig, member)
	}
	return nil
}

// IntSize is the wire size, in bytes, that the message-size accounting
// assigns to one integer field (node identifier or sequence number).
const IntSize = 4

// KindSize is the wire size, in bytes, assigned to a message's kind tag.
const KindSize = 1

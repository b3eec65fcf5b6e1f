// Package singhal implements Singhal's heuristically-aided token algorithm
// (IEEE ToC 1989), the thesis's §2.5 baseline.
//
// Every node tracks a believed state (R, E, H or N) and the highest known
// request number for every other node; the token carries its own copies
// (TSV / TSN). A requester sends REQUEST only to the nodes it believes are
// requesting — the heuristic being that recent requesters either hold the
// token or will receive it soon. On release, holder and token exchange
// whichever entries are fresher, and the token travels to a requesting
// node chosen by circular scan (which provides fairness).
//
// Initialization uses the staircase pattern from Singhal's paper
// (generalized here to an arbitrary initial holder by relabeling): node i
// believes every node "logically before" it is requesting. This asymmetry
// is what guarantees that a request always reaches, directly or
// transitively, the token's trajectory.
//
// Costs (thesis §2.5, §6): between 0 and N messages per entry, degrading
// toward Suzuki–Kasami's N as demand rises; synchronization delay 1;
// storage of two N-entry vectors per node plus two on the token.
package singhal

import (
	"fmt"

	"dagmutex/internal/mutex"
)

// state is a node's belief about another node (or itself).
type state uint8

const (
	stateN state = iota + 1 // not requesting, not holding
	stateR                  // requesting
	stateE                  // executing in the critical section
	stateH                  // holding the idle token
)

func (s state) String() string {
	switch s {
	case stateN:
		return "N"
	case stateR:
		return "R"
	case stateE:
		return "E"
	case stateH:
		return "H"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// request is REQUEST(i, c): node i's c-th request.
type request struct {
	Num uint64
}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message.
func (request) Size() int { return 2 * mutex.IntSize }

// privilege carries the token with its state and sequence vectors.
type privilege struct {
	TSV map[mutex.ID]state
	TSN map[mutex.ID]uint64
}

// Kind implements mutex.Message.
func (privilege) Kind() string { return "PRIVILEGE" }

// Size implements mutex.Message: per node one state byte and one request
// number — the data structure §6.4 contrasts with the DAG's empty token.
func (p privilege) Size() int { return len(p.TSV)*(1+mutex.IntSize) + len(p.TSN)*mutex.IntSize }

// Node is one Singhal site.
type Node struct {
	id  mutex.ID
	ids []mutex.ID
	env mutex.Env

	sv map[mutex.ID]state
	sn map[mutex.ID]uint64

	hasToken bool
	tsv      map[mutex.ID]state
	tsn      map[mutex.ID]uint64

	requesting bool
	inCS       bool

	// fallbackBroadcasts counts uses of the defensive broadcast in
	// Request. Singhal's staircase invariant implies it stays zero; tests
	// assert that.
	fallbackBroadcasts int
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node; cfg.Holder starts with the token. The staircase
// initialization is relabeled so that the holder plays the role of "node
// 1" in Singhal's original description.
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	if cfg.Holder == mutex.Nil {
		return nil, fmt.Errorf("%w: no initial token holder designated", mutex.ErrBadConfig)
	}
	if err := cfg.CheckID(cfg.Holder); err != nil {
		return nil, fmt.Errorf("holder: %w", err)
	}
	n := &Node{
		id:  id,
		ids: append([]mutex.ID(nil), cfg.IDs...),
		env: env,
		sv:  make(map[mutex.ID]state, len(cfg.IDs)),
		sn:  make(map[mutex.ID]uint64, len(cfg.IDs)),
	}
	mine := logicalIndex(n.ids, id, cfg.Holder)
	for _, j := range n.ids {
		if logicalIndex(n.ids, j, cfg.Holder) < mine {
			n.sv[j] = stateR
		} else {
			n.sv[j] = stateN
		}
	}
	if id == cfg.Holder {
		n.sv[id] = stateH
		n.hasToken = true
		n.tsv = make(map[mutex.ID]state, len(cfg.IDs))
		n.tsn = make(map[mutex.ID]uint64, len(cfg.IDs))
		for _, j := range n.ids {
			n.tsv[j] = stateN
		}
	}
	return n, nil
}

// logicalIndex maps id to its position in the staircase with holder first.
func logicalIndex(ids []mutex.ID, id, holder mutex.ID) int {
	pos, hpos := 0, 0
	for i, j := range ids {
		if j == id {
			pos = i
		}
		if j == holder {
			hpos = i
		}
	}
	return (pos - hpos + len(ids)) % len(ids)
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: enter directly when holding, otherwise
// ask exactly the nodes believed to be requesting.
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	if n.hasToken {
		n.sv[n.id] = stateE
		n.inCS = true
		n.env.Granted(0)
		return nil
	}
	n.requesting = true
	n.sv[n.id] = stateR
	n.sn[n.id]++
	sent := false
	for _, j := range n.ids {
		if j != n.id && n.sv[j] == stateR {
			n.env.Send(j, request{Num: n.sn[n.id]})
			sent = true
		}
	}
	if !sent {
		// Defensive fallback: the staircase invariant makes an empty
		// request set unreachable, but a broadcast keeps the upper bound
		// at N even if a belief vector was somehow corrupted.
		n.fallbackBroadcasts++
		for _, j := range n.ids {
			if j != n.id {
				n.env.Send(j, request{Num: n.sn[n.id]})
			}
		}
	}
	return nil
}

// FallbackBroadcasts reports how often the defensive broadcast fired; a
// correct run keeps it at zero (the staircase information structure
// always leaves at least one believed requester).
func (n *Node) FallbackBroadcasts() int { return n.fallbackBroadcasts }

// Release implements mutex.Node: reconcile the node and token vectors
// entry by entry (fresher side wins), then pass the token to a requester
// chosen by circular scan, or keep it if nobody wants it.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	n.sv[n.id] = stateN
	n.tsv[n.id] = stateN
	for _, j := range n.ids {
		if n.sn[j] > n.tsn[j] {
			n.tsv[j] = n.sv[j]
			n.tsn[j] = n.sn[j]
		} else {
			n.sv[j] = n.tsv[j]
			n.sn[j] = n.tsn[j]
		}
	}
	if to, ok := n.scanRequester(); ok {
		n.sendToken(to)
	} else {
		n.sv[n.id] = stateH
	}
	return nil
}

// scanRequester finds the first node in circular id order after this one
// that is believed to be requesting.
func (n *Node) scanRequester() (mutex.ID, bool) {
	idx := 0
	for i, j := range n.ids {
		if j == n.id {
			idx = i
		}
	}
	for k := 1; k < len(n.ids); k++ {
		j := n.ids[(idx+k)%len(n.ids)]
		if n.sv[j] == stateR {
			return j, true
		}
	}
	return mutex.Nil, false
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch msg := m.(type) {
	case request:
		n.deliverRequest(from, msg)
		return nil
	case privilege:
		return n.deliverToken(msg)
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
}

func (n *Node) deliverRequest(from mutex.ID, msg request) {
	if msg.Num <= n.sn[from] {
		return // stale: an equal or newer request is already known
	}
	n.sn[from] = msg.Num
	switch n.sv[n.id] {
	case stateN, stateE:
		n.sv[from] = stateR
	case stateR:
		// Mutual awareness between concurrent requesters: tell the peer
		// we are requesting too, exactly once.
		if n.sv[from] != stateR {
			n.sv[from] = stateR
			n.env.Send(from, request{Num: n.sn[n.id]})
		}
	case stateH:
		n.sv[from] = stateR
		n.tsv[from] = stateR
		n.tsn[from] = msg.Num
		n.sv[n.id] = stateN
		n.sendToken(from)
	}
}

func (n *Node) deliverToken(msg privilege) error {
	if n.hasToken {
		return fmt.Errorf("%w: node %d received a second token", mutex.ErrUnexpectedMessage, n.id)
	}
	if !n.requesting {
		return fmt.Errorf("%w: node %d received token without requesting", mutex.ErrUnexpectedMessage, n.id)
	}
	n.hasToken = true
	n.tsv = msg.TSV
	n.tsn = msg.TSN
	n.requesting = false
	n.sv[n.id] = stateE
	n.inCS = true
	n.env.Granted(0)
	return nil
}

func (n *Node) sendToken(to mutex.ID) {
	tsv, tsn := n.tsv, n.tsn
	n.hasToken = false
	n.tsv = nil
	n.tsn = nil
	n.env.Send(to, privilege{TSV: tsv, TSN: tsn})
}

// Storage implements mutex.Node: two N-entry vectors always, two more
// while holding the token.
func (n *Node) Storage() mutex.Storage {
	s := mutex.Storage{
		Scalars:      1,
		ArrayEntries: 2 * len(n.ids),
		Bytes:        1 + len(n.ids)*(1+mutex.IntSize),
	}
	if n.hasToken {
		s.ArrayEntries += 2 * len(n.ids)
		s.Bytes += len(n.ids) * (1 + mutex.IntSize)
	}
	return s
}

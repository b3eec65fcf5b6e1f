// Package suzukikasami implements Suzuki and Kasami's broadcast token
// algorithm (ACM TOCS 1985), the thesis's §2.4 baseline. Ricart and
// Agrawala's token-based proposal is essentially the same algorithm.
//
// A requester broadcasts REQUEST(i, n) — its identifier and a per-node
// request number — to all other sites. The current token holder compares
// the request number against the LN array carried inside the token (the
// number of j's last satisfied request) to distinguish outstanding
// requests from stale ones, and forwards the token, which also carries an
// explicit FIFO queue of waiting sites.
//
// Costs (thesis §2.4, §6): N−1 REQUESTs plus one PRIVILEGE per remote
// entry (N messages), or zero when the requester holds the token;
// synchronization delay 1. Unlike the DAG algorithm the token carries an
// N-entry array and a queue.
package suzukikasami

import (
	"fmt"

	"dagmutex/internal/mutex"
)

// request is REQUEST(j, n): node j's n-th request.
type request struct {
	Num uint64
}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message: requester id + request number.
func (request) Size() int { return 2 * mutex.IntSize }

// privilege carries the token: the LN array of last-served request
// numbers and the queue of waiting sites.
type privilege struct {
	LN    map[mutex.ID]uint64
	Queue []mutex.ID
}

// Kind implements mutex.Message.
func (privilege) Kind() string { return "PRIVILEGE" }

// Size implements mutex.Message: the token's payload grows with N and the
// queue — the storage contrast §6.4 draws against the empty DAG token.
func (p privilege) Size() int { return len(p.LN)*2*mutex.IntSize + len(p.Queue)*mutex.IntSize }

// Node is one Suzuki–Kasami site.
type Node struct {
	id  mutex.ID
	ids []mutex.ID
	env mutex.Env

	rn map[mutex.ID]uint64 // highest request number seen per site

	hasToken bool
	ln       map[mutex.ID]uint64 // valid while holding the token
	queue    []mutex.ID          // valid while holding the token

	requesting bool
	inCS       bool
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node; cfg.Holder starts with the token.
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
	ids := make([]mutex.ID, len(cfg.IDs))
	copy(ids, cfg.IDs)
	n := &Node{id: id, ids: ids, env: env, rn: make(map[mutex.ID]uint64, len(ids))}
	if cfg.Holder == id {
		n.hasToken = true
		n.ln = make(map[mutex.ID]uint64, len(ids))
	}
	return n, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: enter directly when holding the idle
// token, else broadcast REQUEST(i, RN_i[i]) to every other site.
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	if n.hasToken {
		n.inCS = true
		n.env.Granted(0)
		return nil
	}
	n.requesting = true
	n.rn[n.id]++
	for _, j := range n.ids {
		if j != n.id {
			n.env.Send(j, request{Num: n.rn[n.id]})
		}
	}
	return nil
}

// Release implements mutex.Node: record the served request in LN, pull
// newly outstanding sites into the token queue, and pass the token to the
// queue head if any.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	n.ln[n.id] = n.rn[n.id]
	queued := make(map[mutex.ID]bool, len(n.queue))
	for _, j := range n.queue {
		queued[j] = true
	}
	for _, j := range n.ids {
		if j != n.id && !queued[j] && n.rn[j] == n.ln[j]+1 {
			n.queue = append(n.queue, j)
		}
	}
	if len(n.queue) > 0 {
		head := n.queue[0]
		n.queue = n.queue[1:]
		n.sendToken(head)
	}
	return nil
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch msg := m.(type) {
	case request:
		if msg.Num > n.rn[from] {
			n.rn[from] = msg.Num
		}
		// An idle holder serves an outstanding request immediately.
		if n.hasToken && !n.inCS && n.rn[from] == n.ln[from]+1 {
			n.sendToken(from)
		}
		return nil
	case privilege:
		if n.hasToken {
			return fmt.Errorf("%w: node %d received a second token", mutex.ErrUnexpectedMessage, n.id)
		}
		if !n.requesting {
			return fmt.Errorf("%w: node %d received token without requesting", mutex.ErrUnexpectedMessage, n.id)
		}
		n.hasToken = true
		n.ln = msg.LN
		n.queue = msg.Queue
		n.requesting = false
		n.inCS = true
		n.env.Granted(0)
		return nil
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
}

func (n *Node) sendToken(to mutex.ID) {
	ln := n.ln
	q := n.queue
	n.hasToken = false
	n.ln = nil
	n.queue = nil
	n.env.Send(to, privilege{LN: ln, Queue: q})
}

// Storage implements mutex.Node: an N-entry RN array always, plus the
// token's LN array and queue while holding it.
func (n *Node) Storage() mutex.Storage {
	s := mutex.Storage{
		Scalars:      1, // token-holding flag
		ArrayEntries: len(n.ids),
		Bytes:        1 + len(n.ids)*mutex.IntSize,
	}
	if n.hasToken {
		s.ArrayEntries += len(n.ids)
		s.QueueEntries = len(n.queue)
		s.Bytes += len(n.ids)*mutex.IntSize + len(n.queue)*mutex.IntSize
	}
	return s
}

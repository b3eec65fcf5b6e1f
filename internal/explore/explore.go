// Package explore checks a small system exhaustively: it visits every
// state reachable from a start state, once each, checks the invariants
// of every move on the way and of every state where nothing is left to
// happen, and on a violation returns the moves that lead to it.
//
// The search keeps a set of seen states, not a replayed prefix: a state
// is kept as a 128-bit hash of its full encoding, so that every
// reachable state and every transition out of it is explored once.
// Replaying prefixes instead would re-run the same interleavings
// exponentially often. The states waiting to be expanded are kept as
// they are, each with the moves listed when it was filed: each move out
// of one but the last is made on a clone of it, the last on the state
// itself. Depth first, they are few; breadth first, they are many, and
// the first violation found has the shortest trail.
package explore

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"time"
)

// State is one state of a system under check, with moves of type M.
type State[M any] interface {
	// Moves lists every move enabled in the state, in a slice of its
	// own: the search keeps the list until it expands the state.
	Moves() []M
	// Apply makes a move in place and reports the invariant it breaks,
	// if any.
	Apply(m M) error
	// Clone returns a copy of the state that shares no mutable memory
	// with it: a move made in either leaves the other as it was.
	Clone() State[M]
	// Encode appends the state to b and leaves the state as it was. It
	// must cover every field that a move, an invariant or Quiescent
	// reads: two states with one encoding are taken for one, and the
	// search keeps only the first.
	Encode(b []byte) []byte
	// Quiescent checks a state with no move left.
	Quiescent() error
}

// Result is what a search found.
type Result[M any] struct {
	States, Transitions, Depth int
	Wall                       time.Duration
	Err                        error // the first violation, or nil
	Trail                      []M   // the moves from the start to Err
}

// Search explores every state reachable from start, depth first, or
// breadth first with shortest. It takes start over and makes moves in
// it. A panic in Apply is a violation like any other.
func Search[M any](start State[M], shortest bool) Result[M] {
	begin := time.Now()
	type node struct {
		s     State[M]
		ms    []M // s.Moves(), listed once when s was filed
		t     *trail[M]
		depth int
	}
	var res Result[M]
	seed1, seed2 := maphash.MakeSeed(), maphash.MakeSeed()
	seen := map[[2]uint64]struct{}{}
	var buf []byte
	var todo []node
	// visit files s, reached by t, unless it was seen before, and checks
	// it if nothing is left to happen in it.
	visit := func(s State[M], t *trail[M], depth int) error {
		buf = s.Encode(buf[:0])
		k := [2]uint64{maphash.Bytes(seed1, buf), maphash.Bytes(seed2, buf)}
		if _, ok := seen[k]; ok {
			return nil
		}
		seen[k] = struct{}{}
		res.States, res.Depth = res.States+1, max(res.Depth, depth)
		ms := s.Moves()
		if len(ms) == 0 {
			return s.Quiescent()
		}
		todo = append(todo, node{s, ms, t, depth})
		return nil
	}
	err := visit(start, nil, 0)
	var t *trail[M]
	for err == nil && len(todo) > 0 {
		var n node
		if shortest {
			n, todo[0] = todo[0], node{} // the queue's array keeps no expanded state
			todo = todo[1:]
		} else {
			n, todo = todo[len(todo)-1], todo[:len(todo)-1]
		}
		for i, m := range n.ms {
			res.Transitions++
			t = &trail[M]{n.t, m}
			next := n.s // the last move may use the state it was listed in
			if i < len(n.ms)-1 {
				next = n.s.Clone()
			}
			if err = Apply(next, m); err == nil {
				err = visit(next, t, n.depth+1)
			}
			if err != nil {
				break
			}
		}
	}
	res.Wall, res.Err = time.Since(begin), err
	if err != nil {
		res.Trail = t.moves()
	}
	return res
}

// Apply makes move m in s, reporting a panic as a violation.
func Apply[M any](s State[M], m M) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return s.Apply(m)
}

// Replay makes the moves ms in s and returns the first violation, the
// quiescent check included when ms ends where nothing is left to happen.
func Replay[M any](s State[M], ms []M) error {
	for _, m := range ms {
		if err := Apply(s, m); err != nil {
			return err
		}
	}
	if len(s.Moves()) == 0 {
		return s.Quiescent()
	}
	return nil
}

// trail is the path to a state, shared with its siblings.
type trail[M any] struct {
	up *trail[M]
	m  M
}

func (t *trail[M]) moves() []M {
	var ms []M
	for ; t != nil; t = t.up {
		ms = append(ms, t.m)
	}
	slices.Reverse(ms)
	return ms
}

// Coder appends a state's fields to Buf, each in a form that delimits
// itself, so that two states with one encoding agree field by field.
type Coder struct {
	Buf []byte
}

// Num encodes an integer.
func Num[T ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~int | ~int32 | ~int64](c *Coder, v T) {
	c.Buf = binary.AppendUvarint(c.Buf, uint64(v))
}

// Bit encodes a bool.
func Bit(c *Coder, v bool) {
	if v {
		c.Buf = append(c.Buf, 1)
	} else {
		c.Buf = append(c.Buf, 0)
	}
}

// Str encodes a string.
func Str(c *Coder, v string) {
	Num(c, len(v))
	c.Buf = append(c.Buf, v...)
}

// Time encodes a time.Time as unix nanoseconds, and the zero time as 0.
func Time(c *Coder, t time.Time) {
	var n int64
	if !t.IsZero() {
		n = t.UnixNano()
	}
	Num(c, n)
}

// Map encodes a map with string keys in key order, each value with
// each; a nil map and an empty one encode alike. A map of one key or
// none allocates nothing.
func Map[V any](c *Coder, m map[string]V, each func(V)) {
	Num(c, len(m))
	if len(m) <= 1 { // no order to fix
		for k, v := range m {
			Str(c, k)
			each(v)
		}
		return
	}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		Str(c, k)
		each(m[k])
	}
}

// List encodes a slice, each element with each; a nil slice and an
// empty one encode alike.
func List[T any](c *Coder, s []T, each func(T)) {
	Num(c, len(s))
	for _, x := range s {
		each(x)
	}
}

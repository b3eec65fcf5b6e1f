// Package explore checks a small system exhaustively: it visits every
// state reachable from a start state, once each, checks the invariants
// of every move on the way and of every state where nothing is left to
// happen, and on a violation returns the moves that lead to it.
//
// The search keeps a set of seen states, not a replayed prefix: a state
// is kept as a 128-bit hash of its full encoding, so that every
// reachable state and every transition out of it is explored once.
// Replaying prefixes instead would re-run the same interleavings
// exponentially often. The states waiting to be expanded are kept
// encoded, too, and decoded when their turn comes. Depth first, they are
// few; breadth first, the first violation found has the shortest trail.
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
	// Moves lists every move enabled in the state.
	Moves() []M
	// Apply makes a move in place and reports the invariant it breaks,
	// if any.
	Apply(m M) error
	// Encode appends the state to b. Two states with one encoding must
	// be the same state: the search keeps one of them.
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
// breadth first with shortest. decode turns an encoding back into a
// state of its own, which must not share memory with enc. A panic in
// Apply is a violation like any other.
func Search[M any](start State[M], decode func(enc []byte) State[M], shortest bool) Result[M] {
	begin := time.Now()
	type node struct {
		enc   []byte
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
		if len(s.Moves()) == 0 {
			return s.Quiescent()
		}
		todo = append(todo, node{slices.Clone(buf), t, depth})
		return nil
	}
	err := visit(start, nil, 0)
	var t *trail[M]
	for err == nil && len(todo) > 0 {
		var n node
		if shortest {
			n, todo = todo[0], todo[1:]
		} else {
			n, todo = todo[len(todo)-1], todo[:len(todo)-1]
		}
		s := decode(n.enc)
		ms := s.Moves()
		for i, m := range ms {
			res.Transitions++
			t = &trail[M]{n.t, m}
			next := s // the last move may use the state it was listed in
			if i < len(ms)-1 {
				next = decode(n.enc)
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

// Coder writes a state into Buf, or, with Decoding set, reads one back
// out of it: one walk over a state's fields does both, so what tells two
// states apart is exactly what a decoded state holds.
type Coder struct {
	Buf      []byte
	Decoding bool
}

// Num codes an integer.
func Num[T ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~int | ~int32 | ~int64](c *Coder, v *T) {
	switch {
	case !c.Decoding:
		c.Buf = binary.AppendUvarint(c.Buf, uint64(*v))
	case c.Buf[0] < 0x80:
		*v, c.Buf = T(c.Buf[0]), c.Buf[1:]
	default:
		x, n := binary.Uvarint(c.Buf)
		*v, c.Buf = T(x), c.Buf[n:]
	}
}

// Bit codes a bool.
func Bit(c *Coder, v *bool) {
	x := uint8(0)
	if *v {
		x = 1
	}
	Num(c, &x)
	*v = x == 1
}

// Str codes a string.
func Str(c *Coder, v *string) {
	n := len(*v)
	Num(c, &n)
	if !c.Decoding {
		c.Buf = append(c.Buf, *v...)
		return
	}
	*v, c.Buf = string(c.Buf[:n]), c.Buf[n:]
}

// Time codes a time.Time as unix nanoseconds, and the zero time as 0.
func Time(c *Coder, t *time.Time) {
	var n int64
	if !t.IsZero() {
		n = t.UnixNano()
	}
	if Num(c, &n); c.Decoding && n != 0 {
		*t = time.Unix(0, n)
	}
}

// Map codes a map with string keys in key order, each value with each; a
// decoded map is nil when empty. Encoding a map of one key or none
// allocates nothing.
func Map[V any](c *Coder, m *map[string]V, each func(*V)) {
	n := len(*m)
	if Num(c, &n); c.Decoding {
		*m = nil
		for i := range n {
			var k string
			var v V
			Str(c, &k)
			each(&v)
			if i == 0 {
				*m = make(map[string]V, n)
			}
			(*m)[k] = v
		}
		return
	}
	if n <= 1 { // no order to fix
		for k, v := range *m {
			Str(c, &k)
			each(&v)
		}
		return
	}
	for _, k := range slices.Sorted(maps.Keys(*m)) {
		v := (*m)[k]
		Str(c, &k)
		each(&v)
	}
}

// List codes a slice, each element with each.
func List[T any](c *Coder, s *[]T, each func(*T)) {
	n := len(*s)
	Num(c, &n)
	if c.Decoding {
		*s = make([]T, n)
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

package explore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"
)

// counters is a toy state: two counters that count up to max, a by one
// or two, b by one, and a pair of values that must never be reached.
type counters struct {
	a, b, max int
	bad       [2]int
}

type step uint8

const (
	incA step = iota
	incB
	jumpA // a += 2
)

var errBad = errors.New("bad pair")

func (c *counters) Moves() []step {
	var ms []step
	if c.a+2 <= c.max {
		ms = append(ms, jumpA)
	}
	if c.a < c.max {
		ms = append(ms, incA)
	}
	if c.b < c.max {
		ms = append(ms, incB)
	}
	return ms
}

func (c *counters) Apply(m step) error {
	switch m {
	case incA:
		c.a++
	case incB:
		c.b++
	case jumpA:
		c.a += 2
	}
	if [2]int{c.a, c.b} == c.bad {
		return errBad
	}
	return nil
}

func (c *counters) code(k *Coder) {
	Num(k, &c.a)
	Num(k, &c.b)
}

func (c *counters) Encode(b []byte) []byte {
	k := Coder{Buf: b}
	c.code(&k)
	return k.Buf
}

func (c *counters) Quiescent() error {
	if c.a != c.max || c.b != c.max {
		return fmt.Errorf("stuck at %d, %d", c.a, c.b)
	}
	return nil
}

func search(max int, bad [2]int, shortest bool) Result[step] {
	return Search[step](&counters{max: max, bad: bad}, func(enc []byte) State[step] {
		c := &counters{max: max, bad: bad}
		c.code(&Coder{Buf: enc, Decoding: true})
		return c
	}, shortest)
}

// TestBreadthFirstFindsAShortestTrail: the bad pair (4, 0) is two jumps
// from the start, and three or four moves by other paths, one of which
// depth first takes; breadth first reports the two jumps, and replaying
// them reaches the violation.
func TestBreadthFirstFindsAShortestTrail(t *testing.T) {
	bad := [2]int{4, 0}
	res := search(6, bad, true)
	if !errors.Is(res.Err, errBad) {
		t.Fatalf("err = %v, want the bad pair", res.Err)
	}
	if !slices.Equal(res.Trail, []step{jumpA, jumpA}) {
		t.Fatalf("trail = %v, want two jumps", res.Trail)
	}
	if err := Replay[step](&counters{max: 6, bad: bad}, res.Trail); !errors.Is(err, errBad) {
		t.Fatalf("replay = %v, want the bad pair", err)
	}
	if dfs := search(6, bad, false); !errors.Is(dfs.Err, errBad) || len(dfs.Trail) <= 2 {
		t.Fatalf("depth first: err %v, trail %v; want the bad pair by a longer way", dfs.Err, dfs.Trail)
	}
}

// TestEveryStateOnce: on a clean bound both orders visit each of the
// (max+1)² pairs once, however many paths reach it, and expand every
// move out of each once.
func TestEveryStateOnce(t *testing.T) {
	const max = 6
	transitions := 0
	for a := 0; a <= max; a++ {
		for b := 0; b <= max; b++ {
			transitions += len((&counters{a: a, b: b, max: max}).Moves())
		}
	}
	for _, shortest := range []bool{false, true} {
		res := search(max, [2]int{-1, -1}, shortest)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.States != (max+1)*(max+1) || res.Transitions != transitions {
			t.Fatalf("shortest=%v: %d states, %d transitions; want %d, %d",
				shortest, res.States, res.Transitions, (max+1)*(max+1), transitions)
		}
	}
}

// TestQuiescentViolationAndPanic: a state with no move left is checked,
// and a panic in a move is a violation with a trail.
func TestQuiescentViolationAndPanic(t *testing.T) {
	res := Search[step](&counters{a: 2, b: 2, max: 1}, nil, false)
	if res.Err == nil || res.States != 1 {
		t.Fatalf("stuck start: %d states, err %v; want 1 and an error", res.States, res.Err)
	}
	var p panicky
	res = Search[step](&p, func([]byte) State[step] { return &panicky{} }, true)
	if res.Err == nil || !slices.Equal(res.Trail, []step{incA}) {
		t.Fatalf("panic: err %v, trail %v; want an error after one move", res.Err, res.Trail)
	}
}

type panicky struct{ counters }

func (p *panicky) Moves() []step    { return []step{incA} }
func (p *panicky) Apply(step) error { panic("boom") }

// TestCoderRoundTrip: every helper reads back what it wrote, negative
// integers, the zero time and an empty map included, and a map encodes
// the same however it was filled.
func TestCoderRoundTrip(t *testing.T) {
	type rec struct {
		n        int
		u        uint64
		on       bool
		name     string
		xs       []int32
		at, zero time.Time
		m, none  map[string]uint32
	}
	code := func(c *Coder, r *rec) {
		Num(c, &r.n)
		Num(c, &r.u)
		Bit(c, &r.on)
		Str(c, &r.name)
		List(c, &r.xs, func(x *int32) { Num(c, x) })
		Time(c, &r.at)
		Time(c, &r.zero)
		Map(c, &r.m, func(v *uint32) { Num(c, v) })
		Map(c, &r.none, func(v *uint32) { Num(c, v) })
	}
	in := rec{n: -1, u: 1 << 40, on: true, name: "lane", xs: []int32{0, 127, 128, -5},
		at: time.Unix(0, 1<<40), m: map[string]uint32{"b": 2, "a": 1, "c": 3}}
	enc := Coder{}
	code(&enc, &in)
	var out rec
	code(&Coder{Buf: enc.Buf, Decoding: true}, &out)
	if out.n != in.n || out.u != in.u || out.on != in.on || out.name != in.name || !slices.Equal(out.xs, in.xs) ||
		!out.at.Equal(in.at) || !out.zero.IsZero() || !maps.Equal(out.m, in.m) || out.none != nil {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	again := Coder{}
	in.m = map[string]uint32{"c": 3, "a": 1, "b": 2}
	if code(&again, &in); !bytes.Equal(again.Buf, enc.Buf) {
		t.Fatal("one map, filled in another order, encoded differently")
	}
}

package explore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// counters is a toy state: two counters that count up to max, a by one
// or two, b by one, and a pair of values that must never be reached.
type counters struct {
	a, b, max int
	bad       [2]int
	clones    *int // counts the calls of Clone
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

func (c *counters) Clone() State[step] {
	*c.clones++
	d := *c
	return &d
}

func (c *counters) Encode(b []byte) []byte {
	k := Coder{Buf: b}
	Num(&k, c.a)
	Num(&k, c.b)
	return k.Buf
}

func (c *counters) Quiescent() error {
	if c.a != c.max || c.b != c.max {
		return fmt.Errorf("stuck at %d, %d", c.a, c.b)
	}
	return nil
}

// search explores from (0, 0), and reports how many clones it made.
func search(max int, bad [2]int, shortest bool) (Result[step], int) {
	clones := 0
	res := Search[step](&counters{max: max, bad: bad, clones: &clones}, shortest)
	return res, clones
}

// TestBreadthFirstFindsAShortestTrail: the bad pair (4, 0) is two jumps
// from the start, and three or four moves by other paths, one of which
// depth first takes; breadth first reports the two jumps, and replaying
// them reaches the violation.
func TestBreadthFirstFindsAShortestTrail(t *testing.T) {
	bad := [2]int{4, 0}
	res, _ := search(6, bad, true)
	if !errors.Is(res.Err, errBad) {
		t.Fatalf("err = %v, want the bad pair", res.Err)
	}
	if !slices.Equal(res.Trail, []step{jumpA, jumpA}) {
		t.Fatalf("trail = %v, want two jumps", res.Trail)
	}
	if err := Replay[step](&counters{max: 6, bad: bad}, res.Trail); !errors.Is(err, errBad) {
		t.Fatalf("replay = %v, want the bad pair", err)
	}
	if dfs, _ := search(6, bad, false); !errors.Is(dfs.Err, errBad) || len(dfs.Trail) <= 2 {
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
		res, _ := search(max, [2]int{-1, -1}, shortest)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.States != (max+1)*(max+1) || res.Transitions != transitions {
			t.Fatalf("shortest=%v: %d states, %d transitions; want %d, %d",
				shortest, res.States, res.Transitions, (max+1)*(max+1), transitions)
		}
	}
}

// TestSearchClonesAllButTheLastMove: on a clean bound, in both orders,
// every state with moves left is expanded once, its last move made in
// the state itself and each other on a clone of it.
func TestSearchClonesAllButTheLastMove(t *testing.T) {
	const max = 6
	quiescent := 0
	for a := 0; a <= max; a++ {
		for b := 0; b <= max; b++ {
			if len((&counters{a: a, b: b, max: max}).Moves()) == 0 {
				quiescent++
			}
		}
	}
	for _, shortest := range []bool{false, true} {
		res, clones := search(max, [2]int{-1, -1}, shortest)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want := res.Transitions - (res.States - quiescent); clones != want {
			t.Fatalf("shortest=%v: %d clones for %d transitions out of %d states, %d of them quiescent; want %d",
				shortest, clones, res.Transitions, res.States, quiescent, want)
		}
	}
}

// TestQuiescentViolationAndPanic: a state with no move left is checked,
// and a panic in a move is a violation with a trail.
func TestQuiescentViolationAndPanic(t *testing.T) {
	res := Search[step](&counters{a: 2, b: 2, max: 1}, false)
	if res.Err == nil || res.States != 1 {
		t.Fatalf("stuck start: %d states, err %v; want 1 and an error", res.States, res.Err)
	}
	var p panicky
	res = Search[step](&p, true)
	if res.Err == nil || !slices.Equal(res.Trail, []step{incA}) {
		t.Fatalf("panic: err %v, trail %v; want an error after one move", res.Err, res.Trail)
	}
}

type panicky struct{ counters }

func (p *panicky) Moves() []step      { return []step{incA} }
func (p *panicky) Apply(step) error   { panic("boom") }
func (p *panicky) Clone() State[step] { q := *p; return &q }

// TestCoderTellsFieldsApart: changing any one field of a record changes
// its encoding — a negative int, a list of one zero against a nil one
// and a map of one empty key against an empty one included — and so
// does moving a list's last element to the list after it; a nil list or
// map encodes as an empty one, and a map encodes the same however it
// was filled.
func TestCoderTellsFieldsApart(t *testing.T) {
	type rec struct {
		n        int
		u        uint64
		on       bool
		name     string
		xs, ys   []int32
		at, zero time.Time
		m, none  map[string]uint32
	}
	encode := func(r rec) string {
		c := &Coder{}
		Num(c, r.n)
		Num(c, r.u)
		Bit(c, r.on)
		Str(c, r.name)
		List(c, r.xs, func(x int32) { Num(c, x) })
		List(c, r.ys, func(x int32) { Num(c, x) })
		Time(c, r.at)
		Time(c, r.zero)
		Map(c, r.m, func(v uint32) { Num(c, v) })
		Map(c, r.none, func(v uint32) { Num(c, v) })
		return string(c.Buf)
	}
	base := func() rec {
		return rec{n: 1, u: 1 << 40, name: "lane", xs: []int32{127, 128, -5},
			at: time.Unix(0, 1<<40), m: map[string]uint32{"b": 2, "a": 1, "c": 3}}
	}
	changes := map[string]func(*rec){
		"negative int":               func(r *rec) { r.n = -1 },
		"uint":                       func(r *rec) { r.u++ },
		"bool":                       func(r *rec) { r.on = true },
		"string":                     func(r *rec) { r.name = "lan" },
		"empty string":               func(r *rec) { r.name = "" },
		"list element":               func(r *rec) { r.xs[1] = 0 },
		"shorter list":               func(r *rec) { r.xs = r.xs[:2] },
		"nil list":                   func(r *rec) { r.xs = nil },
		"list of one zero":           func(r *rec) { r.xs = []int32{0} },
		"split list":                 func(r *rec) { r.xs, r.ys = r.xs[:2], r.xs[2:] },
		"time":                       func(r *rec) { r.at = r.at.Add(1) },
		"zero time":                  func(r *rec) { r.at = time.Time{} },
		"set zero time":              func(r *rec) { r.zero = time.Unix(0, 1) },
		"map value":                  func(r *rec) { r.m["b"] = 0 },
		"map key":                    func(r *rec) { delete(r.m, "b"); r.m["d"] = 2 },
		"map of one empty key":       func(r *rec) { r.none = map[string]uint32{"": 0} },
		"map of one key and value 0": func(r *rec) { r.m = map[string]uint32{"a": 0} },
	}
	by := map[string]string{encode(base()): "nothing"}
	for name, change := range changes {
		r := base()
		change(&r)
		enc := encode(r)
		if other, ok := by[enc]; ok {
			t.Errorf("changing the %s encodes as changing %s", name, other)
		}
		by[enc] = name
	}
	fill := func(keys string) map[string]uint32 {
		m := map[string]uint32{}
		for _, k := range keys {
			m[string(k)] = uint32(k)
		}
		return m
	}
	for _, p := range []struct {
		name string
		a, b func(*rec)
	}{
		{"a nil list and an empty one", func(r *rec) { r.xs = nil }, func(r *rec) { r.xs = []int32{} }},
		{"a nil map and an empty one", func(r *rec) { r.m = nil }, func(r *rec) { r.m = map[string]uint32{} }},
		{"one map filled in two orders", func(r *rec) { r.m = fill("abcdefghij") }, func(r *rec) { r.m = fill("jihgfedcba") }},
	} {
		a, b := base(), base()
		p.a(&a)
		p.b(&b)
		if encode(a) != encode(b) {
			t.Errorf("%s encoded differently", p.name)
		}
	}
}

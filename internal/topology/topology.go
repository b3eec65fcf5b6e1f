// Package topology builds and analyzes the logical structures the DAG and
// Raymond algorithms run on. The thesis requires the logical network to be
// acyclic even ignoring edge directions and to have every node's out-degree
// at most one — i.e. the undirected skeleton is a tree; directions are then
// derived by orienting every edge toward the initial token holder, exactly
// what the Figure 5 initialization procedure computes.
package topology

import (
	"fmt"
	"math/rand"
	"slices"

	"dagmutex/internal/mutex"
)

// Tree is an undirected tree over nodes 1..N. It is immutable after
// construction; all builder functions validate connectivity and acyclicity.
type Tree struct {
	name string
	n    int
	// The adjacency, flat: node id's neighbors, ascending, are
	// nbr[off[id]:off[id+1]] (off has n+2 entries; off[0] = off[1] = 0).
	off []int32
	nbr []mutex.ID
}

// New builds a tree over n nodes (IDs 1..n) from an explicit edge list.
// It returns an error unless the edges form exactly a spanning tree.
func New(name string, n int, edges [][2]mutex.ID) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: need at least one node, got %d", n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("topology: tree on %d nodes needs %d edges, got %d", n, n-1, len(edges))
	}
	t := &Tree{name: name, n: n, off: make([]int32, n+2), nbr: make([]mutex.ID, 2*len(edges))}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 1 || b < 1 || int(a) > n || int(b) > n || a == b {
			return nil, fmt.Errorf("topology: bad edge (%d,%d) for n=%d", a, b, n)
		}
		t.off[a+1]++
		t.off[b+1]++
	}
	for id := 2; id <= n+1; id++ {
		t.off[id] += t.off[id-1]
	}
	// Fill each list from its start, using off[id] as the cursor, then
	// restore the starts by shifting the cursors (now the ends) down.
	for _, e := range edges {
		a, b := e[0], e[1]
		t.nbr[t.off[a]] = b
		t.off[a]++
		t.nbr[t.off[b]] = a
		t.off[b]++
	}
	copy(t.off[2:], t.off[1:n+1])
	t.off[1] = 0
	for id := mutex.ID(1); int(id) <= n; id++ {
		slices.Sort(t.adj(id))
	}
	// n-1 edges + connected => acyclic tree.
	if reached := t.bfsCount(1); reached != n {
		return nil, fmt.Errorf("topology: graph not connected (%d of %d reachable)", reached, n)
	}
	return t, nil
}

// MustNew is New but panics on error; for statically known-good shapes.
func MustNew(name string, n int, edges [][2]mutex.ID) *Tree {
	t, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// has reports whether id is one of the tree's nodes.
func (t *Tree) has(id mutex.ID) bool { return id >= 1 && int(id) <= t.n }

// adj returns id's neighbors, ascending, as a view into the tree's own
// storage (nil for an id outside the tree).
func (t *Tree) adj(id mutex.ID) []mutex.ID {
	if !t.has(id) {
		return nil
	}
	return t.nbr[t.off[id]:t.off[id+1]:t.off[id+1]]
}

func (t *Tree) bfsCount(root mutex.ID) int {
	seen := make([]bool, t.n+1)
	queue := make([]mutex.ID, 1, t.n)
	queue[0] = root
	seen[root] = true
	for i := 0; i < len(queue); i++ {
		for _, w := range t.adj(queue[i]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue)
}

// Name returns the human-readable shape name ("line", "star", ...).
func (t *Tree) Name() string { return t.name }

// N returns the number of nodes.
func (t *Tree) N() int { return t.n }

// IDs returns all node identifiers in ascending order.
func (t *Tree) IDs() []mutex.ID {
	ids := make([]mutex.ID, t.n)
	for i := range ids {
		ids[i] = mutex.ID(i + 1)
	}
	return ids
}

// Neighbors returns a copy of id's adjacency list, ascending.
func (t *Tree) Neighbors(id mutex.ID) []mutex.ID {
	src := t.adj(id)
	out := make([]mutex.ID, len(src))
	copy(out, src)
	return out
}

// Degree returns the number of neighbors of id.
func (t *Tree) Degree(id mutex.ID) int { return len(t.adj(id)) }

// ParentsToward orients every edge toward root and returns the resulting
// parent pointers: parent[v] is v's neighbor on the unique path to root.
// root itself is absent from the map (its pointer is the paper's 0). This
// is the steady state that the thesis's INIT procedure (Figure 5) reaches.
func (t *Tree) ParentsToward(root mutex.ID) map[mutex.ID]mutex.ID {
	parent := make(map[mutex.ID]mutex.ID, t.n-1)
	if !t.has(root) {
		return parent
	}
	seen := make([]bool, t.n+1)
	queue := make([]mutex.ID, 1, t.n)
	queue[0] = root
	seen[root] = true
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, w := range t.adj(v) {
			if !seen[w] {
				seen[w] = true
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// Path returns the unique simple path from a to b, inclusive of both ends.
func (t *Tree) Path(a, b mutex.ID) []mutex.ID {
	parent := t.ParentsToward(b)
	path := []mutex.ID{a}
	for v := a; v != b; {
		v = parent[v]
		path = append(path, v)
	}
	return path
}

// Dist returns the number of edges on the path from a to b.
func (t *Tree) Dist(a, b mutex.ID) int { return len(t.Path(a, b)) - 1 }

// Eccentricity returns the greatest distance from id to any node.
func (t *Tree) Eccentricity(id mutex.ID) int {
	_, d := t.farthestFrom(id)
	return d
}

func (t *Tree) farthestFrom(root mutex.ID) (mutex.ID, int) {
	if !t.has(root) {
		return root, 0
	}
	depth := make([]int32, t.n+1) // depth+1 once reached, 0 before
	queue := make([]mutex.ID, 1, t.n)
	queue[0] = root
	depth[root] = 1
	far, farD := root, 0
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, w := range t.adj(v) {
			if depth[w] == 0 {
				depth[w] = depth[v] + 1
				if d := int(depth[w]) - 1; d > farD || (d == farD && w < far) {
					far, farD = w, d
				}
				queue = append(queue, w)
			}
		}
	}
	return far, farD
}

// Diameter returns the length (in edges) of the longest path in the tree —
// the D of the thesis's performance analysis. Computed with the classic
// double-BFS, which is exact on trees.
func (t *Tree) Diameter() int {
	if t.n == 1 {
		return 0
	}
	a, _ := t.farthestFrom(1)
	_, d := t.farthestFrom(a)
	return d
}

// DiameterEndpoints returns a pair of nodes realizing the diameter.
func (t *Tree) DiameterEndpoints() (mutex.ID, mutex.ID) {
	if t.n == 1 {
		return 1, 1
	}
	a, _ := t.farthestFrom(1)
	b, _ := t.farthestFrom(a)
	return a, b
}

// Center returns a node minimizing eccentricity (a tree 1- or 2-center;
// ties broken by lowest ID). Placing the token here minimizes the worst
// request path.
func (t *Tree) Center() mutex.ID {
	best, bestEcc := mutex.ID(1), t.Eccentricity(1)
	for id := mutex.ID(2); int(id) <= t.n; id++ {
		if e := t.Eccentricity(id); e < bestEcc {
			best, bestEcc = id, e
		}
	}
	return best
}

// Line returns the n-node path 1-2-...-n, the thesis's worst topology.
func Line(n int) *Tree {
	edges := make([][2]mutex.ID, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]mutex.ID{mutex.ID(i), mutex.ID(i + 1)})
	}
	return MustNew("line", n, edges)
}

// Star returns the thesis's best ("centralized") topology: node 1 at the
// center, nodes 2..n as leaves. Its diameter is 2 (for n >= 3).
func Star(n int) *Tree {
	edges := make([][2]mutex.ID, 0, n-1)
	for i := 2; i <= n; i++ {
		edges = append(edges, [2]mutex.ID{1, mutex.ID(i)})
	}
	return MustNew("star", n, edges)
}

// RadiatingStar returns a center (node 1) with arms equal-length chains
// hanging off it — the topology Raymond's paper suggested as best, which
// the thesis shows is beaten by the plain star. n = 1 + arms*armLen.
func RadiatingStar(arms, armLen int) *Tree {
	n := 1 + arms*armLen
	edges := make([][2]mutex.ID, 0, n-1)
	next := mutex.ID(2)
	for a := 0; a < arms; a++ {
		prev := mutex.ID(1)
		for s := 0; s < armLen; s++ {
			edges = append(edges, [2]mutex.ID{prev, next})
			prev = next
			next++
		}
	}
	return MustNew(fmt.Sprintf("radiating-star-%dx%d", arms, armLen), n, edges)
}

// Radial returns a balanced two-level radial tree on any n: node 1 at
// the center, an inner ring of ~sqrt(n-1) spokes, and the remaining
// nodes as leaves distributed round-robin among the spokes. Unlike
// RadiatingStar it needs no divisibility of n-1, so sweeps can compare
// the shape at arbitrary sizes. Its diameter is 4 (for n large enough
// to have leaves), between the star's 2 and the chain's n-1 — the
// middle ground the adaptive-topology comparison measures against.
func Radial(n int) *Tree {
	inner := 0
	for (inner+1)*(inner+1) <= n-1 {
		inner++
	}
	edges := make([][2]mutex.ID, 0, n-1)
	for i := 2; i <= n; i++ {
		parent := mutex.ID(1)
		if i-2 >= inner {
			parent = mutex.ID(2 + (i-2-inner)%inner)
		}
		edges = append(edges, [2]mutex.ID{parent, mutex.ID(i)})
	}
	return MustNew("radial", n, edges)
}

// MeanDepth returns the mean distance from every node to root: the
// expected request path length when root possesses the token and
// requesters are uniform — the static shape metric path compression
// drives the live DAG below.
func (t *Tree) MeanDepth(root mutex.ID) float64 {
	total := 0
	for _, id := range t.IDs() {
		total += t.Dist(root, id)
	}
	return float64(total) / float64(t.n)
}

// KAry returns a complete-as-possible k-ary tree on n nodes rooted at 1,
// filled level by level (node i's parent is (i-2)/k + 1).
func KAry(n, k int) *Tree {
	if k < 1 {
		panic("topology: k must be >= 1")
	}
	edges := make([][2]mutex.ID, 0, n-1)
	for i := 2; i <= n; i++ {
		parent := mutex.ID((i-2)/k + 1)
		edges = append(edges, [2]mutex.ID{parent, mutex.ID(i)})
	}
	return MustNew(fmt.Sprintf("%d-ary", k), n, edges)
}

// Random returns a uniformly random labeled tree on n nodes, generated by
// decoding a random Prüfer sequence with rng.
func Random(n int, rng *rand.Rand) *Tree {
	if n == 1 {
		return MustNew("random", 1, nil)
	}
	if n == 2 {
		return MustNew("random", 2, [][2]mutex.ID{{1, 2}})
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n) + 1
	}
	degree := make([]int, n+1)
	for i := 1; i <= n; i++ {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	edges := make([][2]mutex.ID, 0, n-1)
	// Standard Prüfer decode with a scan pointer + leaf candidate.
	ptr := 1
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		edges = append(edges, [2]mutex.ID{mutex.ID(leaf), mutex.ID(v)})
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	edges = append(edges, [2]mutex.ID{mutex.ID(leaf), mutex.ID(n)})
	return MustNew("random", n, edges)
}

// Named builds the n-node tree a command line or config names: "kary4"
// (also ""), "kary2" (alias "binary"), "kary8", "line", "star", "radial",
// "radiating" (the radiating star with the shortest arms of length ≥ 2
// that divide n−1) or "random", drawn from rng, which no other name uses.
func Named(name string, n int, rng *rand.Rand) (*Tree, error) {
	switch name {
	case "", "kary4":
		return KAry(n, 4), nil
	case "kary2", "binary":
		return KAry(n, 2), nil
	case "kary8":
		return KAry(n, 8), nil
	case "line":
		return Line(n), nil
	case "star":
		return Star(n), nil
	case "radial":
		return Radial(n), nil
	case "radiating":
		rest := n - 1
		for armLen := 2; armLen <= rest; armLen++ {
			if rest%armLen == 0 {
				return RadiatingStar(rest/armLen, armLen), nil
			}
		}
		return nil, fmt.Errorf("no radiating star with %d nodes (need n-1 composite)", n)
	case "random":
		return Random(n, rng), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// Figure2 returns the 6-node line used by the thesis's simple example
// (§3.3): 1-2-3-4-5-6 with node 5 initially holding the token.
func Figure2() (*Tree, mutex.ID) {
	return Line(6), 5
}

// Figure6 returns the 6-node tree of the thesis's complete example (§4.2),
// reconstructed from the NEXT table of Figure 6a (1→2, 2→3, 4→3, 5→2,
// 6→4), with node 3 initially holding the token.
func Figure6() (*Tree, mutex.ID) {
	t := MustNew("figure6", 6, [][2]mutex.ID{
		{1, 2}, {2, 3}, {4, 3}, {5, 2}, {6, 4},
	})
	return t, 3
}

// Package workload generates critical-section request patterns for the
// experiments. On the simulator, Closed runs a fixed number of entries per
// node to quiescence and Open keeps requesters thinking and holding for a
// simulated duration. Both respect the paper's model constraint that a
// node has at most one outstanding request at a time: a node's next
// request is only scheduled after its previous critical section has been
// released.
package workload

import (
	"errors"
	"math/rand"
	"time"

	"dagmutex/internal/cluster"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
)

// ThinkTime is a distribution of per-node idle time between leaving the
// critical section and issuing the next request.
type ThinkTime func(rng *rand.Rand) sim.Time

// Fixed returns a constant think time.
func Fixed(d sim.Time) ThinkTime {
	return func(*rand.Rand) sim.Time { return d }
}

// Exponential returns exponentially distributed think times with the given
// mean — a Poisson request process per node.
func Exponential(mean sim.Time) ThinkTime {
	return func(rng *rand.Rand) sim.Time {
		return sim.Time(rng.ExpFloat64() * float64(mean))
	}
}

// UniformBetween returns think times uniform on [min, max].
func UniformBetween(min, max sim.Time) ThinkTime {
	return func(rng *rand.Rand) sim.Time {
		if max <= min {
			return min
		}
		return min + sim.Time(rng.Int63n(int64(max-min+1)))
	}
}

// Heavy is the heavy-demand regime of thesis §6.2: a node re-requests the
// moment it leaves its critical section, so the implicit queue is always
// saturated.
func Heavy() ThinkTime { return Fixed(0) }

// Closed is a closed-loop workload: each participating node performs
// Requests critical-section entries, thinking between them.
type Closed struct {
	// Nodes lists the participating nodes; nil means every cluster node.
	Nodes []mutex.ID
	// Requests is the number of entries each participant performs.
	Requests int
	// Think is the idle-time distribution (default: Heavy).
	Think ThinkTime
	// Rng drives the think-time draws; required when Think is random.
	Rng *rand.Rand
}

// Install arms the workload on c. It must be called before c.Run.
func (w Closed) Install(c *cluster.Cluster) {
	nodes := w.Nodes
	if nodes == nil {
		nodes = c.IDs()
	}
	think := w.Think
	if think == nil {
		think = Heavy()
	}
	rng := w.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	remaining := make(map[mutex.ID]int, len(nodes))
	for _, id := range nodes {
		if w.Requests <= 0 {
			break
		}
		remaining[id] = w.Requests - 1
		c.RequestAt(think(rng), id)
	}
	c.OnRelease(func(id mutex.ID, at sim.Time) {
		left, participating := remaining[id]
		if !participating || left == 0 {
			return
		}
		remaining[id] = left - 1
		c.RequestAt(at+think(rng), id)
	})
}

// Open is the open-loop workload in wall-clock terms: Requesters nodes
// request the critical section, hold it for Hold, release, think, and
// request again until Duration has elapsed. It is sized by time, not by
// work: a request that would fall at or past Duration is never issued.
type Open struct {
	// Duration is the simulated run length.
	Duration time.Duration
	// Requesters is how many nodes drive requests (0 = every node),
	// spread evenly across the ID range.
	Requesters int
	// Think is the mean idle time between a release and the node's next
	// request (exponentially distributed). Default 1s.
	Think time.Duration
	// Hold is the critical-section residence time. Default 5ms.
	Hold time.Duration
}

// Install fills w's defaults, arms its requesters on c and returns w as
// it will run. Every think time is drawn from rng: a first request
// uniform over one mean think time, so the run does not open with a
// synchronized herd, and an exponential one after each release. c must
// be built WithoutAutoRelease: Open releases each grant after Hold.
func (w Open) Install(c *cluster.Cluster, rng *rand.Rand) (Open, error) {
	if w.Duration <= 0 {
		return w, errors.New("workload: open loop needs a positive duration")
	}
	if w.Think <= 0 {
		w.Think = time.Second
	}
	if w.Hold <= 0 {
		w.Hold = 5 * time.Millisecond
	}
	ids := c.IDs()
	if w.Requesters <= 0 || w.Requesters > len(ids) {
		w.Requesters = len(ids)
	}
	o := &openLoop{c: c, rng: rng, end: sim.Time(w.Duration), think: sim.Time(w.Think), hold: sim.Time(w.Hold)}
	stride := float64(len(ids)) / float64(w.Requesters)
	for i := 0; i < w.Requesters; i++ {
		o.requestAt(UniformBetween(0, o.think)(rng), ids[int(float64(i)*stride)])
	}
	c.OnGrant(o.granted)
	c.OnRelease(o.released)
	return w, nil
}

// openLoop is an installed Open: the grant→hold→release and
// release→think→request transitions of its requesters.
type openLoop struct {
	c                *cluster.Cluster
	rng              *rand.Rand
	end, think, hold sim.Time
}

func (o *openLoop) granted(g cluster.Grant) { o.c.ReleaseAfter(o.hold, g.Node) }

func (o *openLoop) released(id mutex.ID, at sim.Time) {
	o.requestAt(at+Exponential(o.think)(o.rng), id)
}

// requestAt arms member id's next request, unless it falls past the end
// of the run.
func (o *openLoop) requestAt(at sim.Time, id mutex.ID) {
	if at < o.end {
		o.c.RequestAt(at, id)
	}
}

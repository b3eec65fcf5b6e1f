package failure

import (
	"sort"
	"sync"

	"dagmutex/internal/mutex"
)

// Injector is a deterministic fault plan that link layers consult on
// every message: crashed nodes, severed (possibly one-way) links, and a
// partition. The zero value injects nothing; faults are toggled at
// runtime by tests and the chaos battery.
//
// The injector only decides; transports enforce. transport.Local and
// transport.TCPHost drop traffic the injector vetoes; the simulator's
// Network carries its own equivalent fault state for deterministic runs,
// and its LatencyModel is the repository's one way to delay a message.
type Injector struct {
	mu        sync.Mutex
	crashed   map[mutex.ID]bool
	severed   map[link]bool
	partition map[mutex.ID]int // node -> group; absent means group -1 (isolated) while a partition is active
	parted    bool
}

type link struct{ from, to mutex.ID }

// NewInjector returns an empty fault plan.
func NewInjector() *Injector {
	return &Injector{
		crashed: make(map[mutex.ID]bool),
		severed: make(map[link]bool),
	}
}

// Allow reports whether a message from -> to may be delivered under the
// current plan. Transports consult it on the send path (and the TCP host
// additionally on receive, so a one-sided injector still cuts both
// directions of a partition).
func (i *Injector) Allow(from, to mutex.ID) bool {
	if i == nil {
		return true
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed[from] || i.crashed[to] {
		return false
	}
	if i.severed[link{from, to}] {
		return false
	}
	if i.parted {
		gf, okf := i.partition[from]
		gt, okt := i.partition[to]
		if !okf || !okt || gf != gt {
			return false
		}
	}
	return true
}

// Crash marks id crashed: all traffic to and from it is dropped until
// Revive. The transport layers additionally stop the node's runtime; the
// injector's share is making it fall silent.
func (i *Injector) Crash(id mutex.ID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashed[id] = true
}

// Revive clears a crash mark (a restarted process).
func (i *Injector) Revive(id mutex.ID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.crashed, id)
}

// Crashed returns the currently crashed nodes, ascending.
func (i *Injector) Crashed() []mutex.ID {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]mutex.ID, 0, len(i.crashed))
	for id := range i.crashed {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Sever cuts the link a -> b in that direction only. Call twice (both
// orders) for a full cut, or use SeverBoth.
func (i *Injector) Sever(a, b mutex.ID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.severed[link{a, b}] = true
}

// SeverBoth cuts the link between a and b in both directions.
func (i *Injector) SeverBoth(a, b mutex.ID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.severed[link{a, b}] = true
	i.severed[link{b, a}] = true
}

// Restore repairs the link between a and b in both directions.
func (i *Injector) Restore(a, b mutex.ID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.severed, link{a, b})
	delete(i.severed, link{b, a})
}

// Partition splits the cluster into the given groups: traffic within a
// group flows, traffic across groups (or to a node in no group) is
// dropped. A new call replaces the previous partition.
func (i *Injector) Partition(groups ...[]mutex.ID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partition = make(map[mutex.ID]int)
	for g, ids := range groups {
		for _, id := range ids {
			i.partition[id] = g
		}
	}
	i.parted = true
}

// Heal removes the partition (severed links and crashes are untouched).
func (i *Injector) Heal() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partition = nil
	i.parted = false
}

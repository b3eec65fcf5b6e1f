package runtime

// SlotState is a test's view of a Slot's private bookkeeping.
type SlotState struct {
	Pending, Abandoned       bool
	Streak, Waiters, Markers int
}

// State snapshots the slot's machine.
func (sl *Slot) State() SlotState {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return SlotState{Pending: sl.h.Pending, Abandoned: sl.h.Abandoned, Streak: sl.h.Streak,
		Waiters: int(sl.waiters.Load()), Markers: len(sl.h.Expired)}
}

// AddWaiters adjusts the queued-acquirer count, standing in for callers
// parked on the semaphore: a release decides its handoff from this count
// alone, and a parked caller that gives up is exactly a decrement.
func (sl *Slot) AddWaiters(n int) { sl.waiters.Add(int64(n)) }

// HoldSem and FreeSem take and free the slot as an acquirer that has
// won the semaphore but not yet claimed the pending grant would.
func (sl *Slot) HoldSem() { sl.sem <- struct{}{} }
func (sl *Slot) FreeSem() { <-sl.sem }

// Holding reports the machine's current hold, if any.
func (sl *Slot) Holding() (key string, fence uint64, held bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.h.Key, sl.h.Fence, sl.h.Held
}

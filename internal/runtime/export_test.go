package runtime

// SlotState is a test's view of a Slot's private bookkeeping.
type SlotState struct {
	Pending, Abandoned       bool
	Streak, Waiters, Markers int
}

// State snapshots the slot's private bookkeeping.
func (sl *Slot) State() SlotState {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return SlotState{Pending: sl.pending, Abandoned: sl.abandoned, Streak: sl.streak,
		Waiters: int(sl.waiters.Load()), Markers: len(sl.expired)}
}

// AddWaiters adjusts the queued-acquirer count, standing in for callers
// parked on the semaphore: a release decides its handoff from this count
// alone, and a parked caller that gives up is exactly a decrement.
func (sl *Slot) AddWaiters(n int) { sl.waiters.Add(int64(n)) }

// HoldSem and FreeSem take and free the slot as an acquirer that has
// won the semaphore but not yet claimed the pending grant would.
func (sl *Slot) HoldSem() { sl.sem <- struct{}{} }
func (sl *Slot) FreeSem() { <-sl.sem }

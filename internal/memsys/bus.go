package memsys

// Bus models a shared, FIFO-arbitrated bus (the node's memory bus or I/O
// bus). A transfer occupies the bus for setup + perWord*words cycles; a
// requester arriving while the bus is busy waits until it frees. Both the
// application processor and incoming message service compete for the same
// buses, which is how memory and I/O bus contention are "fully modeled" in
// the paper's words.
type Bus struct {
	setup    uint64
	perWord  float64
	nextFree uint64

	// BusyCycles accumulates total occupancy, WaitCycles total time
	// requesters spent waiting for the bus.
	BusyCycles uint64
	WaitCycles uint64
}

// NewBus builds a bus with the given setup cost and per-word transfer cost.
func NewBus(setup uint64, perWord float64) *Bus {
	return &Bus{setup: setup, perWord: perWord}
}

// Renew makes b the bus NewBus(setup, perWord) returns, in place: free,
// counters zero.
func (b *Bus) Renew(setup uint64, perWord float64) {
	*b = Bus{setup: setup, perWord: perWord}
}

// Transfer reserves the bus at time now for a transfer of the given number
// of words. It returns the completion time; completion-now is the full cost
// seen by the requester (queueing + occupancy).
func (b *Bus) Transfer(now uint64, words int) (done uint64) {
	start := now
	if b.nextFree > start {
		b.WaitCycles += b.nextFree - start
		start = b.nextFree
	}
	occ := b.setup + round(b.perWord*float64(words))
	b.BusyCycles += occ
	done = start + occ
	b.nextFree = done
	return done
}

// Cost is a convenience wrapper returning the requester-visible cycles of a
// Transfer starting at now.
func (b *Bus) Cost(now uint64, words int) uint64 {
	return b.Transfer(now, words) - now
}

// Fixture for the singlethread analyzer: real concurrency in the
// single-runner core.
package singlethread

import (
	"iter"
	"sync"
)

func spawn(work func()) {
	go work() // want `go statement spawns a second runner`
}

// A pulled sequence runs on its own goroutine: a second runner, however
// the function is reached.
func coroutines(seq iter.Seq[int], seq2 iter.Seq2[int, int]) {
	next, stop := iter.Pull(seq) // want `iter\.Pull spawns a second runner`
	defer stop()
	next()
	_, stop2 := iter.Pull2[int, int](seq2) // want `iter\.Pull2 spawns a second runner`
	stop2()
	pull := iter.Pull[int] // want `iter\.Pull spawns a second runner`
	_ = pull
}

// Ranging over a push iterator stays on the caller's goroutine.
func rangeOverFuncIsFine(seq iter.Seq[int]) (total int) {
	for x := range seq {
		total += x
	}
	return total
}

func channels() {
	ch := make(chan int) // want `channel creation in the single-runner core`
	ch <- 1              // want `channel send in the single-runner core`
	<-ch                 // want `channel receive in the single-runner core`
	for range ch {       // want `range over a channel in the single-runner core`
	}
	select {} // want `select statement in the single-runner core`
}

var mu sync.Mutex // want `use of sync\.Mutex in the single-runner core`

func locked() {
	mu.Lock()         // want `use of sync\.Lock in the single-runner core`
	defer mu.Unlock() // want `use of sync\.Unlock in the single-runner core`
}

// A mutex around a protocol operation is never contended, because only
// one runner exists: every run passes with it, so only the ban sees it.
type tmLocks struct {
	mu   sync.Mutex // want `use of sync\.Mutex in the single-runner core`
	held map[int]bool
}

func (t *tmLocks) Acquire(lock int) {
	t.mu.Lock()         // want `use of sync\.Lock in the single-runner core`
	defer t.mu.Unlock() // want `use of sync\.Unlock in the single-runner core`
	t.held[lock] = true
}

func plainCodeIsFine(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

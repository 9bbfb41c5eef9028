// Fixture for the determinism analyzer: wall-clock reads, the global
// math/rand stream, and order-sensitive map iteration.
package determinism

import (
	"math/rand"
	"sim"
	"sort"
	"stats"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func globalRand() int {
	return rand.Int() // want `global math/rand\.Int draws from a shared process-wide stream`
}

func seededRandOK() int {
	r := rand.New()
	return r.Intn(10)
}

func chargesInMapOrder(p *sim.Proc, costs map[int]uint64) {
	for _, cost := range costs {
		p.Advance(cost, stats.Data) // want `Proc\.Advance inside range over a map charges cycles in map order`
	}
}

// The known blind spot: an order-sensitive call made through a
// package-local helper is not seen, so this charges in map order unflagged.
func chargesThroughHelper(p *sim.Proc, costs map[int]uint64) {
	for _, cost := range costs {
		charge(p, cost)
	}
}

func charge(p *sim.Proc, cost uint64) { p.Advance(cost, stats.Data) }

func sendsInMapOrder(s *sim.Svc, peers map[int]bool) {
	for to := range peers {
		s.Send(to, 1, 8, nil, nil) // want `Svc\.Send inside range over a map sends a message in map order`
	}
}

func unsortedAppend(m map[int]int) []int {
	var pages []int
	for pg := range m {
		pages = append(pages, pg) // want `append to "pages" inside range over a map records map iteration order`
	}
	return pages
}

// The barrier-arrival shape: lock IDs gathered from a map into a list
// that goes out in a message. A receiver that re-sorts the list hides the
// missing sort from every run.
func arrivalLocks(merged map[int]map[int]bool) []int {
	lockIDs := make([]int, 0, len(merged))
	for lock := range merged {
		lockIDs = append(lockIDs, lock) // want `append to "lockIDs" inside range over a map records map iteration order`
	}
	return lockIDs
}

func sortedAppendOK(m map[int]int) []int {
	var pages []int
	for pg := range m {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	return pages
}

func localAccumulatorOK(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

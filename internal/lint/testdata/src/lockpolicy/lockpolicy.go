// Fixture for the lockpolicy layer contract: grant-discipline policies
// are pure queue computations whose queue state must never leak map
// iteration order into grant decisions.
package lockpolicy

import "sim"

// pickNextOK is the clean shape: a pure scoring pass over the waiting
// queue in deterministic slice order, map reads keyed by that order.
func pickNextOK(queue []int, affinity map[int]int) int {
	best, bestScore := -1, -1
	for _, p := range queue {
		if s := affinity[p]; s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

func grantsInMapOrder(s *sim.Svc, waiting map[int]bool) {
	s.ChargeList(len(waiting))
	for p := range waiting {
		s.Send(p, 1, 8, nil, nil) // want `Svc\.Send inside range over a map sends a message in map order`
	}
}

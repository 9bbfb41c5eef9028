package harness

import (
	"math"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// TestBarrierEpisodeAllocatesOnlyItsRelease: at steady state a barrier
// episode allocates only what it publishes. Sixty-four processors on a
// radix-16 combining tree, with sharded homes and managers, cross k and
// then 2k barriers through one warmed arena; a run's set-up and its first
// episode, which grows the barrier scratch of the run's new protocol
// instance, are the same in both, so the difference is k steady episodes.
// AEC publishes nothing when no processor wrote: its arrivals, batches
// and instructions are scratch. TreadMarks' manager publishes the
// release's clock and the box that carries it to every processor; its
// notice list is empty and sized by the last episode's, so it allocates
// nothing.
func TestBarrierEpisodeAllocatesOnlyItsRelease(t *testing.T) {
	const procs, k = 64, 8
	params := memsys.Default().ForProcs(procs)
	params.BarrierRadix, params.ShardHomes, params.ShardManagers = 16, true, true
	for _, c := range []struct {
		kind ProtocolKind
		want float64 // per episode
	}{{ProtoAEC, 0}, {ProtoAECNoLAP, 0}, {ProtoTM, 2}, {ProtoTMLH, 2}} {
		a := &proto.Arena{Region: new(mem.Region)}
		allocs := func(barriers int) float64 {
			return testing.AllocsPerRun(5, func() {
				s := proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
					for range barriers {
						c.Barrier()
					}
				}}
				a.Region.Acquire()
				defer a.Region.Release()
				if proto.Assemble(params, NewProtocol(c.kind, 2), s, nil, nil, a).Run() {
					t.Fatalf("%s: deadlocked", c.kind)
				}
			})
		}
		// Rounded: under the race detector a run's count wobbles by one.
		once, twice := allocs(k), allocs(2*k)
		if got := math.Round((twice - once) / k); got != c.want {
			t.Errorf("%s: %v objects for %d barriers, %v for %d: %v per episode, want %v",
				c.kind, once, k, twice, 2*k, got, c.want)
		}
	}
}

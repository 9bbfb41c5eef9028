package lap

import (
	"math/rand/v2"
	"slices"
	"testing"

	"aecdsm/internal/lockpolicy"
)

// grantStream drives one predictor the way proto.LockMgr does: a request
// to a held lock queues, a request to a free lock is granted at once, and
// a release hands the lock to the policy's pick, or frees it. Notices
// arrive at any time. onGrant runs after every Granted.
type grantStream struct {
	p        *Predictor
	n        int
	held     bool
	holder   int
	last     int // the last releaser, -1 before the first release
	queued   []bool
	onGrant  func(to, prev int)
	released int
}

func newGrantStream(k lockpolicy.Kind, n, ns int) *grantStream {
	p := New(n, ns)
	p.SetPolicy(k)
	return &grantStream{p: p, n: n, last: -1, queued: make([]bool, n)}
}

func (g *grantStream) grant(to int) {
	g.p.Granted(to, g.last)
	g.held, g.holder = true, to
	if g.onGrant != nil {
		g.onGrant(to, g.last)
	}
}

// step plays one random manager event.
func (g *grantStream) step(rng *rand.Rand) {
	proc := rng.IntN(g.n)
	switch rng.IntN(3) {
	case 0:
		g.p.Notice(proc)
	case 1:
		switch {
		case !g.held:
			g.grant(proc)
		case proc != g.holder && !g.queued[proc]:
			g.p.Enqueue(proc)
			g.queued[proc] = true
		}
	case 2:
		if !g.held {
			return
		}
		g.released++
		g.last, g.held = g.holder, false
		if pk := g.p.PickNext(g.holder); pk.Proc >= 0 {
			g.queued[pk.Proc] = false
			g.grant(pk.Proc)
		}
	}
}

// TestPredictedIsTheGrantsUpdateSet: the protocols send Predicted() with
// a grant instead of computing UpdateSet(to) a second time, which is exact
// only if the set Granted published equals a fresh UpdateSet(to) in the
// state Granted leaves behind.
//
// Nothing Granted does after the computation moves the set, and neither
// does the order of its own steps: the affinity increment writes the
// releaser's row, not the grantee's, and steps 3 and 4 skip the holder,
// so the grantee's own notice never takes a slot (computing the set
// before removeNotice(to) publishes the same set). Under fifo, mcs and
// lease the set reads no prediction. Under affinity it does:
// with waiters queued, the set is the policy's PeekNext(to), and the
// affinity policy's oracle reads Predicted(). Granted computes it while
// Predicted() is still the previous set and then publishes [x]. A fresh
// computation asks the policy again with the oracle now [x]. The answer
// is still x, a fixed point: a forced waiter does not depend on the
// oracle, and otherwise the policy takes the earliest queued member of
// the oracle's set, which for [x] is x, since x is queued.
func TestPredictedIsTheGrantsUpdateSet(t *testing.T) {
	for _, k := range lockpolicy.Kinds() {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, 39))
			g := newGrantStream(k, 16, 1+int(seed)%4)
			grants := 0
			g.onGrant = func(to, prev int) {
				grants++
				if got, want := g.p.Predicted(), g.p.UpdateSet(to); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d grant %d (%d after %d): Predicted() = %v, UpdateSet = %v",
						k, seed, grants, to, prev, got, want)
				}
			}
			for range 400 {
				g.step(rng)
			}
			if grants < 50 || g.released < 50 {
				t.Fatalf("%s seed %d: only %d grants, %d releases", k, seed, grants, g.released)
			}
		}
	}
}

// TestPublishedUpdateSetsAreNeverWritten: every set Predicted() returns
// is read after the predictor moves on — by the grant message in flight,
// the journal, the manager's image and the policy oracle — so no later
// grant or query may write it. The stream also asks UpdateSet and
// AffinitySet for other holders between grants, as the bench probe and
// tests do, to churn the scratch.
func TestPublishedUpdateSetsAreNeverWritten(t *testing.T) {
	for _, k := range lockpolicy.Kinds() {
		rng := rand.New(rand.NewPCG(7, 39))
		g := newGrantStream(k, 16, 3)
		var published, copies [][]int
		g.onGrant = func(to, prev int) {
			us := g.p.Predicted()
			published = append(published, us)
			copies = append(copies, slices.Clone(us))
			other := rng.IntN(g.n)
			g.p.UpdateSet(other)
			g.p.AffinitySet(other)
		}
		for len(published) < 1000 {
			g.step(rng)
		}
		for i, us := range published {
			if !slices.Equal(us, copies[i]) {
				t.Fatalf("%s: grant %d published %v, now reads %v", k, i, copies[i], us)
			}
		}
	}
}

// atMostAllocs fails t when f allocates more than max objects per call in
// steady state (AllocsPerRun warms f up with one call first).
func atMostAllocs(t *testing.T, what string, max float64, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n > max {
		t.Errorf("%s allocates %v objects/op, want at most %v", what, n, max)
	}
}

// TestGrantedAllocatesOnlyThePublishedSet: a grant's scratch (the set
// under construction, the affinity set, step 4's candidates, the
// per-technique predictions) is the predictor's, so a steady-state grant
// allocates only the set it publishes, and nothing when that set is
// empty.
func TestGrantedAllocatesOnlyThePublishedSet(t *testing.T) {
	for _, k := range lockpolicy.Kinds() {
		// A ring hand-off with notices: affinity, virtual queue and
		// step 4's candidates all contribute.
		p := New(16, 4)
		p.SetPolicy(k)
		holder := 0
		ring := func() {
			next := (holder + 1) % 16
			p.Notice((next + 1) % 16)
			p.Notice((next + 5) % 16)
			p.Granted(next, holder)
			holder = next
		}
		for range 64 {
			ring()
		}
		if len(p.Predicted()) == 0 {
			t.Fatalf("%s: the ring predicts nothing", k)
		}
		atMostAllocs(t, string(k)+" ring grant", 1, ring)

		// Waiters still queued at every grant: the set is the policy's
		// pick alone.
		waiting := make([]bool, 16)
		enqueue := func() {
			for q := holder + 1; ; q++ {
				if q%16 != holder && !waiting[q%16] {
					p.Enqueue(q % 16)
					waiting[q%16] = true
					return
				}
			}
		}
		enqueue()
		queued := func() {
			enqueue()
			next := p.PickNext(holder).Proc
			waiting[next] = false
			p.Granted(next, holder)
			holder = next
		}
		queued()
		if p.QueueLen() != 1 || len(p.Predicted()) != 1 {
			t.Fatalf("%s: %d waiting, predicted %v", k, p.QueueLen(), p.Predicted())
		}
		atMostAllocs(t, string(k)+" queued grant", 1, queued)

		// Self-transfers with no history: the set is empty.
		q := New(16, 4)
		q.SetPolicy(k)
		self := func() { q.Granted(3, 3) }
		self()
		if us := q.Predicted(); len(us) != 0 {
			t.Fatalf("%s: self-transfer predicts %v", k, us)
		}
		atMostAllocs(t, string(k)+" empty-set grant", 0, self)
	}
}

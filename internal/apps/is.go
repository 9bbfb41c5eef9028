package apps

import (
	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// IS is the Integer Sort kernel (Rice University version used in the
// paper): bucket sort ranking an unsorted sequence of keys. In every
// repetition each processor counts its block of keys into private buckets,
// then enters the single critical section to snapshot the shared bucket
// array (its rank offsets) and add its own counts; after a barrier it
// computes the global prefix sums and ranks its keys. The highly-contended
// lock followed directly by a barrier makes IS the best case for LAP in
// the paper: with a correct prediction the acquirer never faults inside
// the critical section.
type IS struct {
	Keys    int // number of keys (paper: 64K)
	MaxKey  int // key range (buckets)
	Repeats int // ranking repetitions

	keysA   mem.Addr // input keys, read-only after init
	bucketA mem.Addr // shared bucket counts (lock-protected)
	rankA   mem.Addr // final key ranks (barrier data)

	in    *isInput
	procs int
	cfg   Config
	v     verifier
}

// NewIS builds the Integer Sort program. cfg.Scale 1.0 reproduces the
// paper's 64K-key configuration.
func NewIS(cfg Config) *IS {
	return &IS{
		Keys:    scaled(64*1024, cfg.Scale, 1024),
		MaxKey:  1024,
		Repeats: 5,
		cfg:     cfg,
	}
}

// Name implements proto.Program.
func (a *IS) Name() string { return "IS" }

// NumLocks implements proto.Program: the only lock protects the shared
// bucket array.
func (a *IS) NumLocks() int { return 1 }

// Err implements proto.Program.
func (a *IS) Err() error { return a.v.Err() }

// isInput is IS's generated input (Inputs): the keys, which the verifier
// reads back, and their shared-memory image.
type isInput struct {
	keys  []int32
	image []byte
}

// input returns the program's generated input from its memo.
func (a *IS) input() *isInput {
	return load(a.cfg.Inputs, paperKey("IS", a.cfg), func() *isInput {
		rng := a.cfg.Stream(12345)
		in := &isInput{keys: make([]int32, a.Keys), image: make([]byte, 4*a.Keys)}
		for i := range in.keys {
			in.keys[i] = int32(rng.Intn(a.MaxKey))
			putI32(in.image, i, in.keys[i])
		}
		return in
	})
}

// Init implements proto.Program.
func (a *IS) Init(s *mem.Space, nprocs int) {
	a.procs = nprocs
	a.in = a.input()
	a.keysA = s.Alloc("is.keys", 4*a.Keys, 0)
	a.bucketA = s.Alloc("is.buckets", 4*a.MaxKey, 0)
	a.rankA = s.Alloc("is.ranks", 4*a.Keys, 0)
	s.WriteInit(a.keysA, a.in.image)
}

// Body implements proto.Program.
func (a *IS) Body(c *proto.Ctx) {
	lo, hi := block(a.Keys, c.ID, c.N)
	myKeys := make([]int32, hi-lo)
	local := make([]int32, a.MaxKey)
	shared := make([]int32, a.MaxKey)
	offsets := make([]int32, a.MaxKey)
	starts := make([]int32, a.MaxKey)
	next := make([]int32, a.MaxKey)
	ranks := make([]int32, len(myKeys))

	c.ReadI32s(a.keysA+4*lo, myKeys)

	for rep := 0; rep < a.Repeats; rep++ {
		// Phase 1: private bucket counting.
		clear(local)
		for _, k := range myKeys {
			local[k]++
		}
		c.Compute(uint64(len(myKeys)) * 4)

		// Snapshot the shared counts (my per-bucket rank offsets: keys
		// placed by processors that entered the section before me) and
		// fold my counts in. The whole array is read and written inside
		// the critical section — the large merged diffs of Table 4.
		c.Notice(0)
		c.Acquire(0)
		c.ReadI32s(a.bucketA, shared)
		copy(offsets, shared)
		for i := range shared {
			shared[i] += local[i]
		}
		c.WriteI32s(a.bucketA, shared)
		c.Compute(uint64(a.MaxKey) * 2)
		c.Release(0)
		c.Barrier()

		// Phase 2: read the final counts, prefix-sum privately, rank my
		// keys into the shared rank array.
		c.ReadI32s(a.bucketA, shared)
		var acc int32
		for b := 0; b < a.MaxKey; b++ {
			starts[b] = acc
			acc += shared[b]
		}
		c.Compute(uint64(a.MaxKey) * 2)
		clear(next)
		for i, k := range myKeys {
			ranks[i] = starts[k] + offsets[k] + next[k]
			next[k]++
		}
		c.WriteI32s(a.rankA+4*lo, ranks)
		c.Compute(uint64(len(myKeys)) * 3)
		c.Barrier()

		// Reset the shared buckets for the next repetition, writing
		// zeros from next, which the next ranking clears anyway.
		if rep != a.Repeats-1 {
			if c.ID == 0 {
				c.Acquire(0)
				clear(next)
				c.WriteI32s(a.bucketA, next)
				c.Release(0)
			}
			c.Barrier()
		}
	}
	c.Barrier()

	if c.ID == 0 {
		// The ranks must be a permutation that sorts the keys (order
		// within equal keys depends on the critical-section order, so
		// we verify sortedness rather than a fixed assignment).
		got := make([]int32, a.Keys)
		c.ReadI32s(a.rankA, got)
		sorted := make([]int32, a.Keys)
		seen := make([]bool, a.Keys)
		ok := true
		for i, r := range got {
			if r < 0 || int(r) >= a.Keys || seen[r] {
				a.v.fail("IS: rank[%d] = %d is not a permutation", i, r)
				ok = false
				break
			}
			seen[r] = true
			sorted[r] = a.in.keys[i]
		}
		if ok {
			for i := 1; i < a.Keys; i++ {
				if sorted[i-1] > sorted[i] {
					a.v.fail("IS: output not sorted at %d (%d > %d)", i, sorted[i-1], sorted[i])
					break
				}
			}
		}
	}
	c.Barrier()
}

// block partitions n items across nproc processors, returning [lo, hi) for
// processor id.
func block(n, id, nproc int) (lo, hi int) {
	lo = id * n / nproc
	hi = (id + 1) * n / nproc
	return lo, hi
}

func putI32(b []byte, idx int, v int32) {
	b[idx*4] = byte(v)
	b[idx*4+1] = byte(v >> 8)
	b[idx*4+2] = byte(v >> 16)
	b[idx*4+3] = byte(v >> 24)
}

func init() {
	Registry["IS"] = func(cfg Config) proto.Program { return NewIS(cfg) }
}

// LockGroups implements LockGrouper.
func (a *IS) LockGroups() []LockGroup {
	return []LockGroup{{Name: "var 0 (bucket array)", Lo: 0, Hi: 1}}
}

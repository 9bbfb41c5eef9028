package apps

import (
	"fmt"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// SynthConfig parameterizes the seeded synthetic workload used by the
// differential protocol checker (internal/check). Every field is derived
// deterministically from a seed by the generator, so a failing workload is
// reproduced exactly by replaying its seed.
type SynthConfig struct {
	// Seed drives the op schedule, the deltas and the padding layout.
	Seed uint64
	// BaseSeed perturbs the workload's random stream the same way
	// Config.BaseSeed perturbs the paper applications' streams (zero
	// keeps the historical stream for a given Seed).
	BaseSeed uint64
	// Locks is the number of lock-protected counter regions (>= 1).
	Locks int
	// CellsPerLock is the number of counters per region (>= 2; the first
	// two form the pair invariant cell1 == 2*cell0).
	CellsPerLock int
	// Phases is the number of barrier phases.
	Phases int
	// OpsPerPhase is the number of critical sections each processor
	// executes per phase.
	OpsPerPhase int
	// PadWords inserts padding words between counter regions, varying how
	// regions share pages (0 packs everything densely).
	PadWords int
	// Notices makes processors send LAP acquire notices before a fraction
	// of their acquires, exercising the virtual queue.
	Notices bool
}

// norm clamps a config to legal values.
func (cfg SynthConfig) norm() SynthConfig {
	if cfg.Locks < 1 {
		cfg.Locks = 1
	}
	if cfg.CellsPerLock < 2 {
		cfg.CellsPerLock = 2
	}
	if cfg.Phases < 1 {
		cfg.Phases = 1
	}
	if cfg.OpsPerPhase < 1 {
		cfg.OpsPerPhase = 1
	}
	if cfg.PadWords < 0 {
		cfg.PadWords = 0
	}
	return cfg
}

// synthOp is one scheduled critical section.
type synthOp struct {
	lock    int
	delta   int64
	notice  bool
	compute uint64
}

// Synth is the randomized lock-disciplined workload: per-phase, every
// processor runs a seeded schedule of critical sections that add commuting
// deltas to lock-protected counters, writes its private stencil slot
// outside any critical section, and then — in the read-only window between
// a pair of barriers — verifies everything against a static model computed
// from the schedule alone.
//
// The design makes results independent of lock-grant interleaving: only
// commutative additions touch shared counters, so the state at every
// barrier is a pure function of (seed, nprocs). That property is what lets
// the differential runner demand bit-identical checksums from AEC,
// TreadMarks, Munin and the ideal protocol on the same seed.
type Synth struct {
	Cfg SynthConfig

	n       int
	regionA []mem.Addr // base address of each lock's counter region
	slotsA  mem.Addr   // one stencil slot per processor

	inputs *Inputs     // the memo in comes from; nil builds it for this run
	in     *synthInput // this run's schedule, shared read-only

	v         verifier
	phaseSums []uint64 // appended by proc 0 at each phase end
}

// synthInput is Synth's generated input (Inputs): the op schedule and its
// static model, both functions of (config, nprocs).
type synthInput struct {
	sched    [][][]synthOp // [phase][proc] -> ops
	expected [][]int64     // [phase][lock] -> total delta through that phase
}

// NewSynth builds the workload for one config, generating its schedule for
// its own run.
func NewSynth(cfg SynthConfig) *Synth {
	return NewSharedSynth(cfg, nil)
}

// NewSharedSynth builds the workload for one config, taking its schedule
// from in, which may hold it from an earlier run of the same config.
func NewSharedSynth(cfg SynthConfig, in *Inputs) *Synth {
	return &Synth{Cfg: cfg.norm(), inputs: in}
}

// Name implements proto.Program.
func (a *Synth) Name() string { return fmt.Sprintf("synth-%d", a.Cfg.Seed) }

// NumLocks implements proto.Program.
func (a *Synth) NumLocks() int { return a.Cfg.Locks }

// Err implements proto.Program.
func (a *Synth) Err() error { return a.v.Err() }

// Init implements proto.Program: lays out the counter regions and takes the
// full op schedule and its static model for (seed, nprocs) from the memo.
func (a *Synth) Init(s *mem.Space, nprocs int) {
	cfg := a.Cfg
	a.n = nprocs
	a.regionA = make([]mem.Addr, cfg.Locks)
	for l := 0; l < cfg.Locks; l++ {
		a.regionA[l] = s.Alloc(fmt.Sprintf("synth.region%d", l), 8*cfg.CellsPerLock, 0)
		if cfg.PadWords > 0 {
			s.Alloc(fmt.Sprintf("synth.pad%d", l), 8*cfg.PadWords, 0)
		}
	}
	a.slotsA = s.Alloc("synth.slots", 8*nprocs, 0)

	a.in = a.input(nprocs)
	a.phaseSums = nil
}

// input returns the program's generated input on nprocs processors from
// its memo.
func (a *Synth) input(nprocs int) *synthInput {
	cfg := a.Cfg
	return load(a.inputs, inputKey{procs: nprocs, synth: cfg}, func() *synthInput {
		rng := seedStream(cfg.BaseSeed, 0x53594e5448+cfg.Seed) // "SYNTH" + seed
		in := &synthInput{sched: make([][][]synthOp, cfg.Phases), expected: make([][]int64, cfg.Phases)}
		totals := make([]int64, cfg.Locks)
		for p := 0; p < cfg.Phases; p++ {
			in.sched[p] = make([][]synthOp, nprocs)
			for q := 0; q < nprocs; q++ {
				ops := make([]synthOp, cfg.OpsPerPhase)
				for k := range ops {
					ops[k] = synthOp{
						lock:    rng.Intn(cfg.Locks),
						delta:   1 + int64(rng.Intn(9)),
						notice:  cfg.Notices && rng.Intn(4) == 0,
						compute: uint64(rng.Intn(300)),
					}
					totals[ops[k].lock] += ops[k].delta
				}
				in.sched[p][q] = ops
			}
			in.expected[p] = append([]int64(nil), totals...)
		}
		return in
	})
}

// slotVal is the deterministic stencil value processor q publishes in
// phase p (a splitmix64 hash of seed, phase and processor).
func (a *Synth) slotVal(p, q int) int64 {
	z := a.Cfg.Seed + uint64(p)*0x9E3779B97F4A7C15 + uint64(q)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// cellWant is the static-model value of cell j of lock l after phase p.
func (a *Synth) cellWant(p, l, j int) int64 {
	t := a.in.expected[p][l]
	if j == 1 {
		return 2 * t
	}
	return t
}

// Body implements proto.Program.
func (a *Synth) Body(c *proto.Ctx) {
	cfg := a.Cfg
	c.Barrier()
	for p := 0; p < cfg.Phases; p++ {
		for _, op := range a.in.sched[p][c.ID] {
			if op.compute > 0 {
				c.Compute(op.compute)
			}
			if op.notice {
				c.Notice(op.lock)
			}
			c.Acquire(op.lock)
			base := a.regionA[op.lock]
			c0 := c.ReadI64(base)
			c1 := c.ReadI64(base + 8)
			if c1 != 2*c0 {
				a.v.fail("synth seed %d: phase %d proc %d lock %d: pair invariant broken: cell1=%d, want 2*cell0=%d",
					cfg.Seed, p, c.ID, op.lock, c1, 2*c0)
			}
			c.WriteI64(base, c0+op.delta)
			c.WriteI64(base+8, c1+2*op.delta)
			for j := 2; j < cfg.CellsPerLock; j++ {
				c.WriteI64(base+8*mem.Addr(j), c.ReadI64(base+8*mem.Addr(j))+op.delta)
			}
			c.Release(op.lock)
		}
		// Out-of-CS single-writer write: my stencil slot for this phase.
		c.WriteI64(a.slotsA+8*mem.Addr(c.ID), a.slotVal(p, c.ID))
		c.Barrier()
		// Read-only window between barriers: everyone checks the stencil
		// slots; processor 0 additionally takes a lock-disciplined
		// snapshot of the counters against the static model.
		for q := 0; q < a.n; q++ {
			got := c.ReadI64(a.slotsA + 8*mem.Addr(q))
			if got != a.slotVal(p, q) {
				a.v.fail("synth seed %d: phase %d proc %d sees slot %d = %d, want %d",
					cfg.Seed, p, c.ID, q, got, a.slotVal(p, q))
			}
		}
		if c.ID == 0 {
			sum := uint64(14695981039346656037)
			mix := func(v int64) {
				sum ^= uint64(v)
				sum *= 1099511628211
			}
			for l := 0; l < cfg.Locks; l++ {
				c.Acquire(l)
				base := a.regionA[l]
				for j := 0; j < cfg.CellsPerLock; j++ {
					got := c.ReadI64(base + 8*mem.Addr(j))
					if want := a.cellWant(p, l, j); got != want {
						a.v.fail("synth seed %d: phase %d lock %d cell %d = %d, want %d",
							cfg.Seed, p, l, j, got, want)
					}
					mix(got)
				}
				c.Release(l)
			}
			for q := 0; q < a.n; q++ {
				mix(c.ReadI64(a.slotsA + 8*mem.Addr(q)))
			}
			a.phaseSums = append(a.phaseSums, sum)
		}
		c.Barrier()
	}
}

// PhaseChecksums returns the checksum processor 0 computed over all
// shared state at the end of each barrier phase (valid after the run).
func (a *Synth) PhaseChecksums() []uint64 {
	return append([]uint64(nil), a.phaseSums...)
}

// FinalChecksum returns the checksum of the final phase, 0 if the program
// never completed a phase.
func (a *Synth) FinalChecksum() uint64 {
	if len(a.phaseSums) == 0 {
		return 0
	}
	return a.phaseSums[len(a.phaseSums)-1]
}

func init() {
	Registry["synth"] = func(cfg Config) proto.Program {
		sc := SynthConfig{
			Seed:         1,
			BaseSeed:     cfg.BaseSeed,
			Locks:        4,
			CellsPerLock: 4,
			Phases:       scaled(4, cfg.Scale, 2),
			OpsPerPhase:  scaled(6, cfg.Scale, 2),
			PadWords:     24,
			Notices:      true,
		}
		return NewSharedSynth(sc, cfg.Inputs)
	}
}

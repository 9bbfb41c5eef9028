package apps

import (
	"math"
	"slices"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// WaterNS is Water-nsquared: molecular dynamics over n molecules with an
// O(n^2) half-shell pair interaction. The defining protocol workload is
// its locking structure (Table 2: 518 locks, ~28K acquires): one lock per
// molecule protecting that molecule's force accumulator, plus a handful of
// global-sum locks. Processors accumulate pair forces into remote
// molecules under the per-molecule locks — the access pattern LAP's
// transfer-affinity technique was designed for — and the paper inserts
// acquire notices (virtual queue entries) in exactly this application.
type WaterNS struct {
	w waterParams

	posA   mem.Addr // molecule positions (3 f64 each), barrier data
	velA   mem.Addr // velocities, owner-only
	forceA mem.Addr // force accumulators, per-molecule locks
	potA   mem.Addr // global potential accumulator (lock waterLockPot)
	kinA   mem.Addr // global kinetic accumulator (lock waterLockKin)
	idA    mem.Addr // processor ids (lock waterLockID)

	in *waterInput
	v  verifier
}

// Global lock variables; per-molecule locks follow.
const (
	waterLockID = iota
	waterLockPot
	waterLockKin
	waterLockAvg
	waterLockMin
	waterLockMax
	waterGlobalLocks
)

// NewWaterNS builds Water-nsquared; cfg.Scale 1.0 is the paper's
// 512-molecule, 5-step configuration.
func NewWaterNS(cfg Config) *WaterNS {
	return &WaterNS{w: newWaterParams(cfg)}
}

// Name implements proto.Program.
func (a *WaterNS) Name() string { return "Water-ns" }

// NumLocks implements proto.Program: 6 global locks + one per molecule
// (518 total at full scale, matching Table 2).
func (a *WaterNS) NumLocks() int { return waterGlobalLocks + a.w.mols }

// MolLock returns the lock protecting molecule m's force accumulator.
func (a *WaterNS) MolLock(m int) int { return waterGlobalLocks + m }

// MolLockRange returns the lock id range of the per-molecule locks (for
// Table 3's lock-variable grouping).
func (a *WaterNS) MolLockRange() (lo, hi int) {
	return waterGlobalLocks, waterGlobalLocks + a.w.mols
}

// Err implements proto.Program.
func (a *WaterNS) Err() error { return a.v.Err() }

// input returns the program's generated input from its memo.
func (a *WaterNS) input() *waterInput { return a.w.input("Water-ns", a.w.serialWaterNS) }

// Init implements proto.Program.
func (a *WaterNS) Init(s *mem.Space, nprocs int) {
	n := a.w.mols
	a.posA = s.Alloc("water.pos", 24*n, 0)
	a.velA = s.Alloc("water.vel", 24*n, 0)
	a.forceA = s.Alloc("water.force", 24*n, 0)
	a.potA = s.Alloc("water.pot", 8, 0)
	a.kinA = s.Alloc("water.kin", 8, 0)
	a.idA = s.Alloc("water.ids", 8*64, 0)
	a.in = a.input()
	s.WriteInit(a.posA, a.in.pos)
}

func (a *WaterNS) readVec(c *proto.Ctx, base mem.Addr, i int) vec3 {
	var f [3]float64
	c.ReadF64s(base+24*i, f[:])
	return vec3{f[0], f[1], f[2]}
}

func (a *WaterNS) writeVec(c *proto.Ctx, base mem.Addr, i int, v vec3) {
	c.WriteF64s(base+24*i, []float64{v.x, v.y, v.z})
}

// Body implements proto.Program.
func (a *WaterNS) Body(c *proto.Ctx) {
	n := a.w.mols
	c.Acquire(waterLockID)
	c.WriteI64(a.idA, c.ReadI64(a.idA)+1)
	c.Release(waterLockID)
	c.Barrier()

	lo, hi := block(n, c.ID, c.N)
	pos := make([]vec3, n)
	posBuf := make([]float64, 3*n)
	// A batch's force contributions: contrib[m] accumulates in the order
	// the pairs are visited, and touched lists each m it holds once.
	contrib := make([]vec3, n)
	touched := make([]int, 0, n)
	inBatch := make([]bool, n)
	touch := func(m int) {
		if !inBatch[m] {
			inBatch[m] = true
			touched = append(touched, m)
		}
	}

	for step := 0; step < a.w.steps; step++ {
		// PREDIC phase: local integration bookkeeping.
		c.Compute(uint64(40 * (hi - lo)))
		c.Barrier()

		// Read every molecule's position (the whole shared array).
		c.ReadF64s(a.posA, posBuf)
		for i := 0; i < n; i++ {
			pos[i] = vec3{posBuf[3*i], posBuf[3*i+1], posBuf[3*i+2]}
		}

		// INTERF: compute pair forces for my half-shell block in small
		// batches of molecules, flushing each batch's contributions
		// into the shared accumulators before moving on — one critical
		// section per touched molecule, in ascending order, as in
		// SPLASH-2's per-molecule force updates. Acquire notices go out a
		// little ahead of use (the paper's virtual queue).
		const batch = 8
		const noticeAhead = 2
		var localPot float64
		for bLo := lo; bLo < hi; bLo += batch {
			bHi := bLo + batch
			if bHi > hi {
				bHi = hi
			}
			for i := bLo; i < bHi; i++ {
				for dj := 1; dj <= n/2; dj++ {
					j := (i + dj) % n
					if n%2 == 0 && dj == n/2 && i >= n/2 {
						continue
					}
					f, pot := a.w.pairForce(pos[i], pos[j])
					if pot == 0 {
						continue
					}
					touch(i)
					touch(j)
					contrib[i] = contrib[i].add(f)
					contrib[j] = contrib[j].sub(f)
					localPot += pot
				}
				c.Compute(uint64(n / 2 * 6))
			}
			slices.Sort(touched)
			for k, m := range touched {
				if k+noticeAhead < len(touched) {
					c.Notice(a.MolLock(touched[k+noticeAhead]))
				}
				f := contrib[m]
				c.Acquire(a.MolLock(m))
				c.ReadF64s(a.forceA+24*m, posBuf[:3])
				c.WriteF64s(a.forceA+24*m, []float64{posBuf[0] + f.x, posBuf[1] + f.y, posBuf[2] + f.z})
				c.Release(a.MolLock(m))
				contrib[m], inBatch[m] = vec3{}, false
			}
			touched = touched[:0]
		}
		c.Barrier()

		// Global potential reduction.
		c.Acquire(waterLockPot)
		c.AddF64(a.potA, localPot)
		c.Release(waterLockPot)
		c.Barrier()

		// CORREC: integrate my molecules; force read+reset inside the
		// molecule's critical section, position written outside any
		// critical section (barrier data).
		var localKin float64
		for i := lo; i < hi; i++ {
			c.Acquire(a.MolLock(i))
			f := a.readVec(c, a.forceA, i)
			a.writeVec(c, a.forceA, i, vec3{})
			c.Release(a.MolLock(i))
			velPrev := a.readVec(c, a.velA, i)
			v := velPrev.add(f.scale(a.w.dt))
			a.writeVec(c, a.velA, i, v)
			np := pos[i].add(v.scale(a.w.dt))
			a.writeVec(c, a.posA, i, np)
			localKin += 0.5 * v.norm() * v.norm()
			c.Compute(30)
		}
		c.Barrier()

		// Global kinetic reduction.
		c.Acquire(waterLockKin)
		c.AddF64(a.kinA, localKin)
		c.Release(waterLockKin)
		c.Barrier()

		// Inter-step bookkeeping phase.
		c.Compute(uint64(10 * (hi - lo)))
		c.Barrier()
	}

	if c.ID == 0 {
		maxErr := 0.0
		for i := 0; i < n; i++ {
			d := a.readVec(c, a.posA, i).sub(a.in.wantPos[i])
			if e := d.norm(); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 1e-6 {
			a.v.fail("Water-ns: max position error %g", maxErr)
		}
		pot := c.ReadF64(a.potA)
		if rel := math.Abs(pot-a.in.wantPot) / math.Max(1, math.Abs(a.in.wantPot)); rel > 1e-6 {
			a.v.fail("Water-ns: potential %g, want %g", pot, a.in.wantPot)
		}
	}
	c.Barrier()
}

func init() {
	Registry["Water-ns"] = func(cfg Config) proto.Program { return NewWaterNS(cfg) }
}

// LockGroups implements LockGrouper.
func (a *WaterNS) LockGroups() []LockGroup {
	lo, hi := a.MolLockRange()
	return []LockGroup{
		{Name: "vars 1-2 (energy sums)", Lo: waterLockPot, Hi: waterLockKin + 1},
		{Name: "vars 6.. (molecule locks)", Lo: lo, Hi: hi},
	}
}

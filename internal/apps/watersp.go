package apps

import (
	"math"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// WaterSP is Water-spatial: the same molecular dynamics problem as
// Water-nsquared but with an owner-computes spatial decomposition — each
// processor computes the full force on its own molecules by reading
// neighbors' positions, so no remote force writes happen and locks are
// needed only for global sums (Table 2: 6 locks, ~533 acquires vs
// Water-nsquared's 28K). Communication is all read-based position sharing
// synchronized by barriers.
type WaterSP struct {
	w waterParams

	posA mem.Addr // current positions
	newA mem.Addr // next-step positions
	velA mem.Addr
	potA mem.Addr
	kinA mem.Addr
	avgA mem.Addr
	minA mem.Addr
	maxA mem.Addr
	idA  mem.Addr

	in *waterInput
	v  verifier
}

// NewWaterSP builds Water-spatial; cfg.Scale 1.0 is the paper's
// 512-molecule, 5-step configuration.
func NewWaterSP(cfg Config) *WaterSP {
	return &WaterSP{w: newWaterParams(cfg)}
}

// Name implements proto.Program.
func (a *WaterSP) Name() string { return "Water-sp" }

// NumLocks implements proto.Program: only the global-value locks.
func (a *WaterSP) NumLocks() int { return waterGlobalLocks }

// Err implements proto.Program.
func (a *WaterSP) Err() error { return a.v.Err() }

// input returns the program's generated input from its memo.
func (a *WaterSP) input() *waterInput { return a.w.input("Water-sp", a.w.serialWaterSP) }

// Init implements proto.Program.
func (a *WaterSP) Init(s *mem.Space, nprocs int) {
	n := a.w.mols
	a.posA = s.Alloc("watersp.pos", 24*n, 0)
	a.newA = s.Alloc("watersp.newpos", 24*n, 0)
	a.velA = s.Alloc("watersp.vel", 24*n, 0)
	a.potA = s.Alloc("watersp.pot", 8, 0)
	a.kinA = s.Alloc("watersp.kin", 8, 0)
	a.avgA = s.Alloc("watersp.avg", 8, 0)
	a.minA = s.Alloc("watersp.min", 8, 0)
	a.maxA = s.Alloc("watersp.max", 8, 0)
	a.idA = s.Alloc("watersp.ids", 8*64, 0)
	b8 := make([]byte, 8)
	putF64(b8, 0, 1e308)
	s.WriteInit(a.minA, b8)
	a.in = a.input()
	s.WriteInit(a.posA, a.in.pos)
}

func (a *WaterSP) readVec(c *proto.Ctx, base mem.Addr, i int) vec3 {
	var f [3]float64
	c.ReadF64s(base+24*i, f[:])
	return vec3{f[0], f[1], f[2]}
}

func (a *WaterSP) writeVec(c *proto.Ctx, base mem.Addr, i int, v vec3) {
	c.WriteF64s(base+24*i, []float64{v.x, v.y, v.z})
}

// Body implements proto.Program.
func (a *WaterSP) Body(c *proto.Ctx) {
	n := a.w.mols
	c.Acquire(waterLockID)
	c.WriteI64(a.idA, c.ReadI64(a.idA)+1)
	c.Release(waterLockID)
	c.Barrier()

	lo, hi := block(n, c.ID, c.N)
	pos := make([]vec3, n)
	posBuf := make([]float64, 3*n)
	cur, next := a.posA, a.newA

	for step := 0; step < a.w.steps; step++ {
		// Predictor phase.
		c.Compute(uint64(10 * (hi - lo)))
		c.Barrier()

		// Cell-list construction phase (local bookkeeping).
		c.Compute(uint64(20 * (hi - lo)))
		c.Barrier()

		// Read the whole position array (neighbor cells included).
		c.ReadF64s(cur, posBuf)
		for i := 0; i < n; i++ {
			pos[i] = vec3{posBuf[3*i], posBuf[3*i+1], posBuf[3*i+2]}
		}

		// Owner-computes: full force on each owned molecule, reading
		// every interaction partner (both directions computed locally,
		// matching the serial reference exactly).
		var localPot, localKin float64
		for i := lo; i < hi; i++ {
			var force vec3
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				f, pot := a.w.pairForce(pos[i], pos[j])
				force = force.add(f)
				localPot += pot / 2
			}
			c.Compute(uint64(6 * n))
			v := a.readVec(c, a.velA, i).add(force.scale(a.w.dt))
			a.writeVec(c, a.velA, i, v)
			a.writeVec(c, next, i, pos[i].add(v.scale(a.w.dt)))
			localKin += 0.5 * v.norm() * v.norm()
		}
		c.Barrier()

		// Global reductions under the global-value locks (potential,
		// kinetic, and the avg/min/max temperature statistics Water
		// maintains — Table 2's ~533 acquires on 6 locks).
		c.Acquire(waterLockPot)
		c.AddF64(a.potA, localPot)
		c.Release(waterLockPot)
		c.Acquire(waterLockKin)
		c.AddF64(a.kinA, localKin)
		c.Release(waterLockKin)
		c.Acquire(waterLockAvg)
		c.AddF64(a.avgA, localKin/float64(hi-lo))
		c.Release(waterLockAvg)
		c.Acquire(waterLockMin)
		if localKin < c.ReadF64(a.minA) {
			c.WriteF64(a.minA, localKin)
		}
		c.Release(waterLockMin)
		c.Acquire(waterLockMax)
		if localKin > c.ReadF64(a.maxA) {
			c.WriteF64(a.maxA, localKin)
		}
		c.Release(waterLockMax)
		c.Barrier()

		// Kinetic-energy scaling phase.
		c.Compute(uint64(8 * (hi - lo)))
		c.Barrier()

		// Molecule-to-cell reassignment phase.
		c.Compute(uint64(15 * (hi - lo)))
		c.Barrier()

		cur, next = next, cur
	}

	if c.ID == 0 {
		maxErr := 0.0
		for i := 0; i < n; i++ {
			p := a.readVec(c, cur, i)
			d := p.sub(a.in.wantPos[i])
			if e := d.norm(); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 1e-12 {
			a.v.fail("Water-sp: max position error %g", maxErr)
		}
		pot := c.ReadF64(a.potA)
		if rel := math.Abs(pot-a.in.wantPot) / math.Max(1, math.Abs(a.in.wantPot)); rel > 1e-9 {
			a.v.fail("Water-sp: potential %g, want %g", pot, a.in.wantPot)
		}
	}
	c.Barrier()
}

func init() {
	Registry["Water-sp"] = func(cfg Config) proto.Program { return NewWaterSP(cfg) }
}

// LockGroups implements LockGrouper.
func (a *WaterSP) LockGroups() []LockGroup {
	return []LockGroup{
		{Name: "var 0 (proc ids)", Lo: waterLockID, Hi: waterLockID + 1},
		{Name: "vars 1-5 (global values)", Lo: waterLockPot, Hi: waterLockMax + 1},
	}
}

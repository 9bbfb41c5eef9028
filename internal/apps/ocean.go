package apps

import (
	"math"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// Ocean studies large-scale ocean movements through eddy and boundary
// currents. Its computational core — reproduced here — is an iterative
// red-black Gauss-Seidel relaxation over a (n+2)x(n+2) grid with a
// lock-protected global residual reduction each iteration. The row-strip
// partitioning makes the strip-boundary rows the communication surface,
// and the hundreds of barrier episodes (Table 2: 900) dominate
// synchronization, with locks used for processor ids and global sums.
type Ocean struct {
	N     int // interior grid dimension (paper: 256 -> 258x258 incl. borders)
	Iters int // relaxation iterations

	gridA mem.Addr
	resA  mem.Addr // global residual accumulator (lock 1)
	minA  mem.Addr // global min reduction (lock 2)
	maxA  mem.Addr // global max reduction (lock 3)
	idA   mem.Addr // processor ids (lock 0)

	in *oceanInput
	v  verifier

	cfg Config
}

// Ocean lock variables.
const (
	oceanLockID = iota
	oceanLockRes
	oceanLockMin
	oceanLockMax
	oceanNumLocks
)

// NewOcean builds the Ocean program; cfg.Scale 1.0 is the paper's
// 258x258 grid. Iterations are set so the barrier count lands near
// Table 2's 900.
func NewOcean(cfg Config) *Ocean {
	n := 256
	for n > 32 && float64(n*n) > 256*256*clampScale(cfg.Scale) {
		n /= 2
	}
	iters := 224 // 4 barriers per iteration + startup/teardown ≈ 900
	if n < 256 {
		iters = 24
	}
	return &Ocean{N: n, Iters: iters, cfg: cfg}
}

// Name implements proto.Program.
func (a *Ocean) Name() string { return "Ocean" }

// NumLocks implements proto.Program.
func (a *Ocean) NumLocks() int { return oceanNumLocks }

// Err implements proto.Program.
func (a *Ocean) Err() error { return a.v.Err() }

func (a *Ocean) dim() int { return a.N + 2 }

// oceanInput is Ocean's generated input (Inputs): the initial grid's
// image and the grid after the serial relaxation.
type oceanInput struct {
	grid []byte
	want []float64
}

// input returns the program's generated input from its memo.
func (a *Ocean) input() *oceanInput {
	return load(a.cfg.Inputs, paperKey("Ocean", a.cfg), func() *oceanInput {
		d := a.dim()
		rng := a.cfg.Stream(4242)
		in := &oceanInput{grid: make([]byte, 8*d*d), want: make([]float64, d*d)}
		for i := range in.want {
			in.want[i] = rng.Float64()
			putF64(in.grid, i, in.want[i])
		}
		// Serial reference: identical red-black sweeps.
		for it := 0; it < a.Iters; it++ {
			serialSweep(in.want, d, 0)
			serialSweep(in.want, d, 1)
		}
		return in
	})
}

// Init implements proto.Program.
func (a *Ocean) Init(s *mem.Space, nprocs int) {
	d := a.dim()
	a.in = a.input()
	a.gridA = s.Alloc("ocean.grid", 8*d*d, 0)
	a.resA = s.Alloc("ocean.residual", 8, 0)
	a.minA = s.Alloc("ocean.min", 8, 0)
	a.maxA = s.Alloc("ocean.max", 8, 0)
	a.idA = s.Alloc("ocean.ids", 8*64, 0)
	s.WriteInit(a.gridA, a.in.grid)
	b := make([]byte, 8)
	putF64(b, 0, math.Inf(1))
	s.WriteInit(a.minA, b)
	putF64(b, 0, math.Inf(-1))
	s.WriteInit(a.maxA, b)
}

// serialSweep relaxes cells of one color ((r+c)%2 == color).
func serialSweep(g []float64, d, color int) {
	for r := 1; r < d-1; r++ {
		for c := 1 + (r+color)%2; c < d-1; c += 2 {
			g[r*d+c] = 0.25 * (g[(r-1)*d+c] + g[(r+1)*d+c] + g[r*d+c-1] + g[r*d+c+1])
		}
	}
}

// Body implements proto.Program.
func (a *Ocean) Body(c *proto.Ctx) {
	d := a.dim()
	// Processor identification under lock 0, as in SPLASH-2 Ocean.
	c.Acquire(oceanLockID)
	id := c.ReadI64(a.idA)
	c.WriteI64(a.idA, id+1)
	c.Release(oceanLockID)
	c.Barrier()

	// Row-strip partitioning of interior rows [1, d-1).
	lo, hi := block(d-2, c.ID, c.N)
	lo, hi = lo+1, hi+1

	rowUp := make([]float64, d)
	rowMid := make([]float64, d)
	rowDn := make([]float64, d)
	out := make([]float64, d)

	for it := 0; it < a.Iters; it++ {
		var localRes float64
		for color := 0; color < 2; color++ {
			for r := lo; r < hi; r++ {
				c.ReadF64s(a.gridA+8*(r-1)*d, rowUp)
				c.ReadF64s(a.gridA+8*r*d, rowMid)
				c.ReadF64s(a.gridA+8*(r+1)*d, rowDn)
				copy(out, rowMid)
				for cc := 1 + (r+color)%2; cc < d-1; cc += 2 {
					nv := 0.25 * (rowUp[cc] + rowDn[cc] + rowMid[cc-1] + rowMid[cc+1])
					localRes += math.Abs(nv - rowMid[cc])
					out[cc] = nv
					// Gauss-Seidel within the row: later cells see
					// earlier updates through rowMid.
					rowMid[cc] = nv
				}
				c.Compute(uint64(5 * d / 2))
				c.WriteF64s(a.gridA+8*r*d, out)
			}
			c.Barrier()
		}

		// Global residual reduction under lock 1.
		c.Acquire(oceanLockRes)
		c.AddF64(a.resA, localRes)
		c.Release(oceanLockRes)
		c.Barrier()

		// Every 16th iteration Ocean also reduces extrema (locks 2-3).
		if it%16 == 0 {
			var mn, mx float64 = math.Inf(1), math.Inf(-1)
			c.ReadF64s(a.gridA+8*lo*d, rowMid)
			for _, v := range rowMid[1 : d-1] {
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}
			c.Compute(uint64(d))
			c.Acquire(oceanLockMin)
			c.WriteF64(a.minA, math.Min(c.ReadF64(a.minA), mn))
			c.Release(oceanLockMin)
			c.Acquire(oceanLockMax)
			c.WriteF64(a.maxA, math.Max(c.ReadF64(a.maxA), mx))
			c.Release(oceanLockMax)
		}

		// Processor 0 consumes and resets the residual.
		if c.ID == 0 {
			c.Acquire(oceanLockRes)
			c.WriteF64(a.resA, 0)
			c.Release(oceanLockRes)
		}
		c.Barrier()
	}

	if c.ID == 0 {
		row := make([]float64, d)
		maxErr := 0.0
		for r := 0; r < d; r++ {
			c.ReadF64s(a.gridA+8*r*d, row)
			for cc := 0; cc < d; cc++ {
				if e := math.Abs(row[cc] - a.in.want[r*d+cc]); e > maxErr {
					maxErr = e
				}
			}
		}
		if maxErr > 1e-12 {
			a.v.fail("Ocean: max grid error %g", maxErr)
		}
	}
	c.Barrier()
}

func init() {
	Registry["Ocean"] = func(cfg Config) proto.Program { return NewOcean(cfg) }
}

// LockGroups implements LockGrouper.
func (a *Ocean) LockGroups() []LockGroup {
	return []LockGroup{
		{Name: "var 0 (proc ids)", Lo: oceanLockID, Hi: oceanLockID + 1},
		{Name: "var 1 (residual)", Lo: oceanLockRes, Hi: oceanLockRes + 1},
		{Name: "vars 2-3 (extrema)", Lo: oceanLockMin, Hi: oceanLockMax + 1},
	}
}

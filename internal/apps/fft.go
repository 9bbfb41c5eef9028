package apps

import (
	"fmt"
	"math"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// FFT performs a complex 1-D FFT organized as an n x n matrix (the
// transpose-based algorithm of SPLASH-2, optimized to reduce
// interprocessor communication): row FFTs, a transpose with twiddle
// multiplication, row FFTs again, and a final transpose. Rows are
// block-distributed; the transposes are the communication phases. The only
// lock initializes processor ids; everything else is barrier-synchronized,
// making FFT a pure invalidate/write-notice workload for AEC.
type FFT struct {
	N int // matrix dimension (paper: 256 -> 64K points)

	matA  mem.Addr // the data matrix (row-major complex)
	tmpA  mem.Addr // transpose target
	rootA mem.Addr // twiddle factor matrix (read-only)
	idA   mem.Addr // processor id bookkeeping, under the lock

	in *fftInput
	v  verifier

	cfg Config
}

// NewFFT builds the FFT program; cfg.Scale 1.0 is the paper's 256x256
// matrix.
func NewFFT(cfg Config) *FFT {
	n := 256
	for n > 32 && float64(n*n) > 256*256*clampScale(cfg.Scale) {
		n /= 2
	}
	return &FFT{N: n, cfg: cfg}
}

// Name implements proto.Program.
func (a *FFT) Name() string { return "FFT" }

// CheckSplit implements proto.SplitChecker: the transpose-based algorithm
// block-distributes the N rows of the matrix, so at most N processors can
// be fed. At reduced -scale the matrix shrinks (NewFFT halves N), which
// is how a 1024-processor sweep at small scale used to walk off the end
// of the decomposition; now it is a clear, size-aware error the sweeps
// can skip on.
func (a *FFT) CheckSplit(nprocs int) error {
	if nprocs > a.N {
		return fmt.Errorf("FFT: %dx%d matrix (scale %g) splits into at most %d row blocks, cannot feed %d processors; raise the scale or lower the processor count",
			a.N, a.N, clampScale(a.cfg.Scale), a.N, nprocs)
	}
	return nil
}

// NumLocks implements proto.Program.
func (a *FFT) NumLocks() int { return 1 }

// Err implements proto.Program.
func (a *FFT) Err() error { return a.v.Err() }

// fftInput is FFT's generated input (Inputs): the initial images of the
// data and twiddle matrices and the serial transform of the data.
type fftInput struct {
	mat, roots []byte
	want       []complex128
}

// input returns the program's generated input from its memo.
func (a *FFT) input() *fftInput {
	return load(a.cfg.Inputs, paperKey("FFT", a.cfg), func() *fftInput {
		n := a.N
		rng := a.cfg.Stream(777)
		data := make([]complex128, n*n)
		for i := range data {
			data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		in := &fftInput{mat: make([]byte, 16*n*n), roots: make([]byte, 16*n*n)}
		for i, v := range data {
			putF64(in.mat, 2*i, real(v))
			putF64(in.mat, 2*i+1, imag(v))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w := twiddle(i*j, n*n)
				putF64(in.roots, 2*(i*n+j), real(w))
				putF64(in.roots, 2*(i*n+j)+1, imag(w))
			}
		}
		// Serial reference: identical operation order, so results match
		// bit-for-bit up to float associativity we do not disturb.
		in.want = serialFFT(data, n)
		return in
	})
}

// Init implements proto.Program.
func (a *FFT) Init(s *mem.Space, nprocs int) {
	n := a.N
	a.in = a.input()
	a.matA = s.Alloc("fft.mat", 16*n*n, 0)
	a.tmpA = s.Alloc("fft.tmp", 16*n*n, 0)
	a.rootA = s.Alloc("fft.roots", 16*n*n, 0)
	// The id table holds one counter plus one slot per processor. The
	// historical fixed 8*64 size is kept for machines it fits (allocation
	// sizes shape the page layout, and with it every golden cycle count);
	// larger machines get exactly the slots they need instead of writing
	// past the end.
	idBytes := 8 * 64
	if need := 8 * (nprocs + 1); need > idBytes {
		idBytes = need
	}
	a.idA = s.Alloc("fft.ids", idBytes, 0)
	s.WriteInit(a.matA, a.in.mat)
	s.WriteInit(a.rootA, a.in.roots)
}

// Body implements proto.Program.
func (a *FFT) Body(c *proto.Ctx) {
	n := a.N
	// Processor id registration under the lock (the paper's only lock
	// use in FFT).
	c.Acquire(0)
	slot := c.ReadI64(a.idA)
	c.WriteI64(a.idA, slot+1)
	c.WriteI64(a.idA+8+8*c.ID, int64(c.ID))
	c.Release(0)
	c.Barrier()

	lo, hi := block(n, c.ID, c.N)
	row := make([]complex128, n)
	col := make([]complex128, n)
	tw := make([]complex128, n)
	fl := make([]float64, 2*n) // the shared words of one row

	// Step 1: FFT my rows in place.
	for r := lo; r < hi; r++ {
		a.readRow(c, a.matA, r, row, fl)
		fftInPlace(row, false)
		c.Compute(uint64(5 * n * log2(n)))
		a.writeRow(c, a.matA, r, row, fl)
	}
	c.Barrier()

	// Step 2: transpose with twiddle multiply: tmp[r][c] = mat[c][r] *
	// W(rc). Column reads cross every other processor's rows.
	for r := lo; r < hi; r++ {
		a.readCol(c, a.matA, r, col)
		a.readRow(c, a.rootA, r, tw, fl)
		for j := 0; j < n; j++ {
			col[j] *= tw[j]
		}
		c.Compute(uint64(6 * n))
		a.writeRow(c, a.tmpA, r, col, fl)
	}
	c.Barrier()

	// Step 3: FFT the transposed rows.
	for r := lo; r < hi; r++ {
		a.readRow(c, a.tmpA, r, row, fl)
		fftInPlace(row, false)
		c.Compute(uint64(5 * n * log2(n)))
		a.writeRow(c, a.tmpA, r, row, fl)
	}
	c.Barrier()

	// Step 4: transpose back into the result layout.
	for r := lo; r < hi; r++ {
		a.readCol(c, a.tmpA, r, col)
		c.Compute(uint64(2 * n))
		a.writeRow(c, a.matA, r, col, fl)
	}
	c.Barrier()

	if c.ID == 0 {
		maxErr := 0.0
		for r := 0; r < n; r++ {
			a.readRow(c, a.matA, r, row, fl)
			for j := 0; j < n; j++ {
				d := row[j] - a.in.want[r*n+j]
				if e := math.Hypot(real(d), imag(d)); e > maxErr {
					maxErr = e
				}
			}
		}
		if maxErr > 1e-9 {
			a.v.fail("FFT: max output error %g", maxErr)
		}
	}
	c.Barrier()
}

// readRow and writeRow move one row between shared memory and dst/src
// through fl, the caller's scratch of 2n words.
func (a *FFT) readRow(c *proto.Ctx, base mem.Addr, r int, dst []complex128, fl []float64) {
	n := a.N
	c.ReadF64s(base+16*r*n, fl)
	for j := 0; j < n; j++ {
		dst[j] = complex(fl[2*j], fl[2*j+1])
	}
}

func (a *FFT) writeRow(c *proto.Ctx, base mem.Addr, r int, src []complex128, fl []float64) {
	n := a.N
	for j := 0; j < n; j++ {
		fl[2*j] = real(src[j])
		fl[2*j+1] = imag(src[j])
	}
	c.WriteF64s(base+16*r*n, fl)
}

func (a *FFT) readCol(c *proto.Ctx, base mem.Addr, col int, dst []complex128) {
	n := a.N
	fl := make([]float64, 2)
	for r := 0; r < n; r++ {
		c.ReadF64s(base+16*(r*n+col), fl)
		dst[r] = complex(fl[0], fl[1])
	}
}

// serialFFT runs the identical four-step algorithm sequentially.
func serialFFT(m []complex128, n int) []complex128 {
	row := make([]complex128, n)
	for r := 0; r < n; r++ {
		copy(row, m[r*n:(r+1)*n])
		fftInPlace(row, false)
		copy(m[r*n:(r+1)*n], row)
	}
	tmp := make([]complex128, n*n)
	for r := 0; r < n; r++ {
		for j := 0; j < n; j++ {
			tmp[r*n+j] = m[j*n+r] * twiddle(r*j, n*n)
		}
	}
	for r := 0; r < n; r++ {
		copy(row, tmp[r*n:(r+1)*n])
		fftInPlace(row, false)
		copy(tmp[r*n:(r+1)*n], row)
	}
	out := make([]complex128, n*n)
	for r := 0; r < n; r++ {
		for j := 0; j < n; j++ {
			out[r*n+j] = tmp[j*n+r]
		}
	}
	return out
}

// fftInPlace is an iterative radix-2 Cooley-Tukey FFT.
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

func twiddle(k, n int) complex128 {
	ang := -2 * math.Pi * float64(k%n) / float64(n)
	return complex(math.Cos(ang), math.Sin(ang))
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

func putF64(b []byte, idx int, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[idx*8+i] = byte(bits >> (8 * i))
	}
}

func init() {
	Registry["FFT"] = func(cfg Config) proto.Program { return NewFFT(cfg) }
}

// LockGroups implements LockGrouper.
func (a *FFT) LockGroups() []LockGroup {
	return []LockGroup{{Name: "var 0 (proc ids)", Lo: 0, Hi: 1}}
}

package apps

import (
	"math"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// Raytrace renders a three-dimensional sphere scene ("teapot" stand-in) by
// tracing a primary ray per pixel. The image plane is partitioned among
// processors in contiguous tile blocks; distributed task queues — one per
// processor, each guarded by its own lock — hold the tiles, and idle
// processors steal from others' queues for load balance. A separate
// memory-management lock serializes ray-packet allocation, and it is the
// hottest lock in the program (the paper's var 1, ~66% of all lock
// events); the queue locks are vars 2-17.
type Raytrace struct {
	Width, Height int
	Tile          int

	in *rayInput

	queueA mem.Addr // per-proc task queues (head, tail, entries)
	imageA mem.Addr // output image (one float per pixel)
	memA   mem.Addr // memory-management allocation counter

	qcap  int
	procs int
	cfg   Config
	v     verifier
}

type sphere struct {
	center vec3
	radius float64
	shade  float64
}

// NewRaytrace builds the renderer; cfg.Scale 1.0 renders 512x256 with
// 16x16 tiles (~1300 tiles), approximating Table 2's event counts.
func NewRaytrace(cfg Config) *Raytrace {
	w, h := 512, 512
	for w*h > int(512*512*clampScale(cfg.Scale)) && w > 64 {
		if w > h {
			w /= 2
		} else {
			h /= 2
		}
	}
	return &Raytrace{Width: w, Height: h, Tile: 16, cfg: cfg}
}

// Name implements proto.Program.
func (a *Raytrace) Name() string { return "Raytrace" }

// NumLocks implements proto.Program: 1 memory lock + 16 queue locks + 1
// spare matches the paper's 18.
func (a *Raytrace) NumLocks() int { return 1 + a.procs + 1 }

// MemLock returns the memory-management lock id (the paper's var 1).
func (a *Raytrace) MemLock() int { return 0 }

// QueueLock returns the lock guarding processor q's task queue.
func (a *Raytrace) QueueLock(q int) int { return 1 + q }

// Err implements proto.Program.
func (a *Raytrace) Err() error { return a.v.Err() }

func (a *Raytrace) tilesX() int { return (a.Width + a.Tile - 1) / a.Tile }
func (a *Raytrace) tilesY() int { return (a.Height + a.Tile - 1) / a.Tile }
func (a *Raytrace) tiles() int  { return a.tilesX() * a.tilesY() }

// rayInput is Raytrace's generated input (Inputs): the scene and the
// serial reference image rendered from it.
type rayInput struct {
	scene []sphere
	want  []float64
}

// input returns the program's generated input from its memo.
func (a *Raytrace) input() *rayInput {
	return load(a.cfg.Inputs, paperKey("Raytrace", a.cfg), func() *rayInput {
		rng := a.cfg.Stream(31337)
		in := &rayInput{scene: make([]sphere, 24), want: make([]float64, a.Width*a.Height)}
		for i := range in.scene {
			in.scene[i] = sphere{
				center: vec3{rng.Float64()*4 - 2, rng.Float64()*4 - 2, 3 + rng.Float64()*4},
				radius: 0.3 + rng.Float64()*0.7,
				shade:  0.2 + rng.Float64()*0.8,
			}
		}
		for y := 0; y < a.Height; y++ {
			for x := 0; x < a.Width; x++ {
				in.want[y*a.Width+x] = a.shadePixel(in.scene, x, y)
			}
		}
		return in
	})
}

// Init implements proto.Program.
func (a *Raytrace) Init(s *mem.Space, nprocs int) {
	a.procs = nprocs
	a.in = a.input()

	// Queue space: per proc, 2 int64 (head, tail) + capacity entries.
	a.qcap = a.tiles() // every queue can hold all tiles (steal headroom)
	a.queueA = s.Alloc("ray.queues", nprocs*8*(2+a.qcap), 0)
	a.imageA = s.Alloc("ray.image", 8*a.Width*a.Height, 0)
	a.memA = s.Alloc("ray.mem", 8, 0)

	// Pre-fill the queues: tiles are dealt to their home processor in
	// contiguous blocks of the image plane, as in SPLASH-2.
	buf := make([]byte, nprocs*8*(2+a.qcap))
	fill := func(idx int, v int64) {
		for b := 0; b < 8; b++ {
			buf[idx*8+b] = byte(v >> (8 * b))
		}
	}
	total := a.tiles()
	for q := 0; q < nprocs; q++ {
		lo, hi := block(total, q, nprocs)
		base := q * (2 + a.qcap)
		fill(base+0, 0)            // head
		fill(base+1, int64(hi-lo)) // tail
		for k := lo; k < hi; k++ {
			fill(base+2+(k-lo), int64(k))
		}
	}
	s.WriteInit(a.queueA, buf)
}

// shadePixel traces the primary ray for one pixel of the scene.
func (a *Raytrace) shadePixel(scene []sphere, x, y int) float64 {
	// Camera at origin looking down +z; pixel grid on the z=1 plane.
	dx := (float64(x)+0.5)/float64(a.Width)*4 - 2
	dy := (float64(y)+0.5)/float64(a.Height)*4 - 2
	d := vec3{dx, dy, 1}
	inv := 1 / d.norm()
	d = d.scale(inv)
	best := math.Inf(1)
	shade := 0.05 // background
	for _, sp := range scene {
		// Ray-sphere intersection.
		oc := sp.center
		b := d.x*oc.x + d.y*oc.y + d.z*oc.z
		disc := b*b - (oc.x*oc.x + oc.y*oc.y + oc.z*oc.z) + sp.radius*sp.radius
		if disc < 0 {
			continue
		}
		t := b - math.Sqrt(disc)
		if t > 1e-6 && t < best {
			best = t
			// Lambertian shade from a fixed light direction.
			hit := d.scale(t)
			nrm := hit.sub(sp.center).scale(1 / sp.radius)
			l := vec3{0.5, 0.7, -0.5}
			l = l.scale(1 / l.norm())
			lam := nrm.x*l.x + nrm.y*l.y + nrm.z*l.z
			if lam < 0 {
				lam = 0
			}
			shade = sp.shade * (0.15 + 0.85*lam)
		}
	}
	return shade
}

// queueBase returns the address of processor q's queue record.
func (a *Raytrace) queueBase(q int) mem.Addr {
	return a.queueA + q*8*(2+a.qcap)
}

// popTile pops a tile from queue q (own work from the head, steals from
// the tail), returning -1 when the queue is empty. Must be called with the
// queue lock held.
func (a *Raytrace) popTile(c *proto.Ctx, q int, steal bool) int {
	base := a.queueBase(q)
	head := c.ReadI64(base)
	tail := c.ReadI64(base + 8)
	if head >= tail {
		return -1
	}
	var tile int64
	if steal {
		tail--
		tile = c.ReadI64(base + 8*(2+int(tail)))
		c.WriteI64(base+8, tail)
	} else {
		tile = c.ReadI64(base + 8*(2+int(head)))
		c.WriteI64(base, head+1)
	}
	return int(tile)
}

// Body implements proto.Program.
func (a *Raytrace) Body(c *proto.Ctx) {
	c.Barrier()
	tx := a.tilesX()
	rendered := 0
	// Persistent-victim stealing: keep stealing from the last productive
	// victim until its queue drains (SPLASH-2 behaviour, and the source
	// of the lock-transfer affinity LAP exploits on the queue locks).
	victim := (c.ID + 1) % c.N
	row := make([]float64, a.Tile) // one row of a tile
	for {
		// Take work from the own queue first.
		c.Acquire(a.QueueLock(c.ID))
		tile := a.popTile(c, c.ID, false)
		c.Release(a.QueueLock(c.ID))

		// Steal when empty, probing from the current victim onwards.
		probes := 0
		for tile < 0 && probes < c.N {
			if victim != c.ID {
				c.Notice(a.QueueLock(victim))
				c.Acquire(a.QueueLock(victim))
				tile = a.popTile(c, victim, true)
				c.Release(a.QueueLock(victim))
				if tile >= 0 {
					break // stay on this victim next time
				}
			}
			victim = (victim + 1) % c.N
			probes++
		}
		if tile < 0 {
			break // no work anywhere
		}

		// Memory management: allocate a ray packet id for the tile (the
		// paper's hot lock: two acquires per tile — alloc and free).
		c.Acquire(a.MemLock())
		c.WriteI64(a.memA, c.ReadI64(a.memA)+1)
		c.Release(a.MemLock())

		// Render the tile.
		ty, txi := tile/tx, tile%tx
		x0, y0 := txi*a.Tile, ty*a.Tile
		for y := y0; y < y0+a.Tile && y < a.Height; y++ {
			w := a.Tile
			if x0+w > a.Width {
				w = a.Width - x0
			}
			for x := x0; x < x0+w; x++ {
				row[x-x0] = a.shadePixel(a.in.scene, x, y)
			}
			c.Compute(uint64(90 * w))
			c.WriteF64s(a.imageA+8*(y*a.Width+x0), row[:w])
		}
		rendered++

		// Free the ray packet.
		c.Acquire(a.MemLock())
		c.WriteI64(a.memA, c.ReadI64(a.memA)-1)
		c.Release(a.MemLock())
	}
	c.Barrier()

	if c.ID == 0 {
		row := make([]float64, a.Width)
		for y := 0; y < a.Height; y++ {
			c.ReadF64s(a.imageA+8*y*a.Width, row)
			for x := 0; x < a.Width; x++ {
				if math.Abs(row[x]-a.in.want[y*a.Width+x]) > 1e-12 {
					a.v.fail("Raytrace: pixel (%d,%d) = %g, want %g", x, y, row[x], a.in.want[y*a.Width+x])
					y = a.Height
					break
				}
			}
		}
		if n := c.ReadI64(a.memA); n != 0 {
			a.v.fail("Raytrace: %d ray packets leaked", n)
		}
	}
	c.Barrier()
}

func init() {
	Registry["Raytrace"] = func(cfg Config) proto.Program { return NewRaytrace(cfg) }
}

// LockGroups implements LockGrouper.
func (a *Raytrace) LockGroups() []LockGroup {
	return []LockGroup{
		{Name: "var 1 (memory mgmt)", Lo: 0, Hi: 1},
		{Name: "vars 2-17 (task queues)", Lo: 1, Hi: 1 + a.procs},
	}
}

package apps

import "math"

// vec3 is a small 3-vector for the molecular dynamics workloads.
type vec3 struct{ x, y, z float64 }

func (a vec3) add(b vec3) vec3      { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec3) sub(b vec3) vec3      { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) scale(s float64) vec3 { return vec3{a.x * s, a.y * s, a.z * s} }
func (a vec3) norm() float64        { return math.Sqrt(a.x*a.x + a.y*a.y + a.z*a.z) }

// waterParams holds the shared MD model: molecules on a perturbed cubic
// lattice interacting through a short-range spring-like pair force — a
// cheap, stable stand-in for the water potential that preserves the
// sharing structure (short-range neighborhoods, per-molecule force
// accumulation, global energy reductions).
type waterParams struct {
	mols    int     // number of molecules (paper: 512)
	side    int     // lattice side (mols = side^3)
	spacing float64 // lattice spacing
	cutoff  float64 // interaction cutoff
	dt      float64 // integration step
	steps   int     // time steps (paper: 5)
	cfg     Config  // the RNG base for the lattice perturbation, and the memo
}

func newWaterParams(cfg Config) waterParams {
	side := 8 // 512 molecules
	if clampScale(cfg.Scale) < 0.5 {
		side = 5 // 125 molecules for fast tests
	}
	return waterParams{
		mols:    side * side * side,
		side:    side,
		spacing: 1.0,
		cutoff:  2.5, // ~30 neighbours/molecule: Table 2's ~28K lock events
		dt:      0.002,
		steps:   5,
		cfg:     cfg,
	}
}

// initialPositions lays the molecules on a deterministically perturbed
// lattice.
func (w waterParams) initialPositions() []vec3 {
	rng := w.cfg.Stream(99991)
	pos := make([]vec3, w.mols)
	i := 0
	for x := 0; x < w.side; x++ {
		for y := 0; y < w.side; y++ {
			for z := 0; z < w.side; z++ {
				jit := func() float64 { return (rng.Float64() - 0.5) * 0.2 }
				pos[i] = vec3{
					float64(x)*w.spacing + jit(),
					float64(y)*w.spacing + jit(),
					float64(z)*w.spacing + jit(),
				}
				i++
			}
		}
	}
	return pos
}

// pairForce returns the force exerted on molecule i by molecule j and the
// pair potential energy, zero beyond the cutoff.
func (w waterParams) pairForce(pi, pj vec3) (f vec3, pot float64) {
	d := pi.sub(pj)
	r := d.norm()
	if r >= w.cutoff || r == 0 {
		return vec3{}, 0
	}
	// Soft repulsive spring: f = k*(cutoff-r) along d.
	const k = 0.5
	mag := k * (w.cutoff - r) / r
	return d.scale(mag), 0.5 * k * (w.cutoff - r) * (w.cutoff - r)
}

// serialWaterNS runs the half-shell O(n^2) reference simulation,
// returning final positions and the summed potential across steps.
func (w waterParams) serialWaterNS() ([]vec3, float64) {
	pos := w.initialPositions()
	vel := make([]vec3, w.mols)
	var totalPot float64
	n := w.mols
	force := make([]vec3, n)
	for s := 0; s < w.steps; s++ {
		clear(force)
		for i := 0; i < n; i++ {
			for dj := 1; dj <= n/2; dj++ {
				j := (i + dj) % n
				if n%2 == 0 && dj == n/2 && i >= n/2 {
					continue // half-shell: count each pair once
				}
				f, pot := w.pairForce(pos[i], pos[j])
				if pot == 0 {
					continue
				}
				force[i] = force[i].add(f)
				force[j] = force[j].sub(f)
				totalPot += pot
			}
		}
		for i := 0; i < n; i++ {
			vel[i] = vel[i].add(force[i].scale(w.dt))
			pos[i] = pos[i].add(vel[i].scale(w.dt))
		}
	}
	return pos, totalPot
}

// serialWaterSP runs the owner-computes reference: every molecule's force
// is computed fully (both directions), so each molecule's accumulation
// order is independent of the partitioning — parallel results match
// exactly.
func (w waterParams) serialWaterSP() ([]vec3, float64) {
	pos := w.initialPositions()
	vel := make([]vec3, w.mols)
	var totalPot float64
	n := w.mols
	for s := 0; s < w.steps; s++ {
		newPos := make([]vec3, n)
		for i := 0; i < n; i++ {
			var force vec3
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				f, pot := w.pairForce(pos[i], pos[j])
				force = force.add(f)
				totalPot += pot / 2 // both directions counted
			}
			vel[i] = vel[i].add(force.scale(w.dt))
			newPos[i] = pos[i].add(vel[i].scale(w.dt))
		}
		pos = newPos
	}
	return pos, totalPot
}

// waterInput is a Water program's generated input (Inputs): the initial
// positions' image and the serial reference's final positions and summed
// potential.
type waterInput struct {
	pos     []byte
	wantPos []vec3
	wantPot float64
}

// input returns app's generated input from the memo; serial is its
// reference simulation.
func (w waterParams) input(app string, serial func() ([]vec3, float64)) *waterInput {
	return load(w.cfg.Inputs, paperKey(app, w.cfg), func() *waterInput {
		in := &waterInput{pos: make([]byte, 24*w.mols)}
		for i, p := range w.initialPositions() {
			putF64(in.pos, 3*i, p.x)
			putF64(in.pos, 3*i+1, p.y)
			putF64(in.pos, 3*i+2, p.z)
		}
		in.wantPos, in.wantPot = serial()
		return in
	})
}

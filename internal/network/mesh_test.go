package network

import (
	"reflect"
	"testing"
	"testing/quick"

	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
)

func testMesh() *Mesh { return NewMesh(memsys.Default()) }

func TestHops(t *testing.T) {
	m := testMesh() // 4x4
	for _, tc := range []struct{ from, to, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1},
		{0, 15, 6},
		{5, 10, 2},
		{3, 12, 6},
	} {
		if got := m.Hops(tc.from, tc.to); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := testMesh()
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Fatalf("Hops(%d,%d) != Hops(%d,%d)", a, b, b, a)
			}
		}
	}
}

func TestFlits(t *testing.T) {
	m := testMesh() // 2-byte flits
	for _, tc := range []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4096, 2048},
	} {
		if got := m.Flits(tc.bytes); got != tc.want {
			t.Errorf("Flits(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := testMesh()
	// 1 hop, 1 flit: switch(4)+wire(2) = 6.
	if got := m.Latency(0, 1, 2); got != 6 {
		t.Errorf("Latency 1 hop 1 flit = %d, want 6", got)
	}
	// 6 hops, 1 flit: 6*6 = 36.
	if got := m.Latency(0, 15, 2); got != 36 {
		t.Errorf("Latency 6 hops = %d, want 36", got)
	}
	// Body pipelining: +2 per extra flit.
	if got := m.Latency(0, 1, 6); got != 6+2*2 {
		t.Errorf("Latency 3 flits = %d, want 10", got)
	}
	if got := m.Latency(3, 3, 100); got != 0 {
		t.Errorf("local latency = %d, want 0", got)
	}
}

func TestTransferMatchesLatencyWhenIdle(t *testing.T) {
	m := testMesh()
	lat := m.Latency(0, 15, 64)
	if got := m.Transfer(1000, 0, 15, 64); got != 1000+lat {
		t.Errorf("idle Transfer = %d, want %d", got, 1000+lat)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	m := testMesh()
	// Two messages over the same link at the same time: the second
	// arrives later than it would on an idle mesh.
	first := m.Transfer(0, 0, 1, 4096)
	second := m.Transfer(0, 0, 1, 4096)
	if second <= first {
		t.Fatalf("contended transfer (%d) should finish after the first (%d)", second, first)
	}
	if m.WaitCycles == 0 {
		t.Fatal("expected link wait cycles to accumulate")
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	m := testMesh()
	a := m.Transfer(0, 0, 1, 4096)   // link 0->1
	b := m.Transfer(0, 14, 15, 4096) // link 14->15
	if a-0 != b-0 {
		t.Fatalf("disjoint transfers should cost the same: %d vs %d", a, b)
	}
}

func TestTransferNeverBeatsLatency(t *testing.T) {
	f := func(seed uint32, pairs []uint16) bool {
		m := testMesh()
		now := uint64(0)
		for _, pv := range pairs {
			from := int(pv) % 16
			to := int(pv>>4) % 16
			bytes := int(pv%1000) + 1
			arr := m.Transfer(now, from, to, bytes)
			if arr < now+m.Latency(from, to, bytes) {
				return false
			}
			now += uint64(pv % 37)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// testRand is a tiny local xorshift64* so mesh tests stay seedable and
// deterministic without importing math/rand.
type testRand uint64

func (r *testRand) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = testRand(x)
	return x * 0x2545F4914F6CDD1D
}

// TestTransferConsistencyRandom checks the core timing contract on random
// inputs: on an idle mesh, Transfer(now, from, to, bytes) arrives exactly
// at now + Latency(from, to, bytes).
func TestTransferConsistencyRandom(t *testing.T) {
	r := testRand(12345)
	for i := 0; i < 500; i++ {
		m := testMesh() // fresh mesh: no residual link reservations
		from := int(r.next() % 16)
		to := int(r.next() % 16)
		bytes := int(r.next() % 5000)
		now := r.next() % 1_000_000
		got := m.Transfer(now, from, to, bytes)
		want := now + m.Latency(from, to, bytes)
		if got != want {
			t.Fatalf("Transfer(%d, %d->%d, %dB) = %d, want %d (uncontended must equal Latency+now)",
				now, from, to, bytes, got, want)
		}
	}
}

// TestContentionMonotoneInInjectionTime checks FIFO sanity: with identical
// preceding traffic, injecting the same message later never makes it
// arrive earlier.
func TestContentionMonotoneInInjectionTime(t *testing.T) {
	r := testRand(987)
	for trial := 0; trial < 50; trial++ {
		// A shared random preamble creates link contention; replay it on a
		// fresh mesh for every probe time so the state is identical.
		type tx struct {
			now      uint64
			from, to int
			bytes    int
		}
		preamble := make([]tx, 8)
		for i := range preamble {
			preamble[i] = tx{r.next() % 500, int(r.next() % 16), int(r.next() % 16), int(r.next()%4096) + 1}
		}
		from := int(r.next() % 16)
		to := int(r.next() % 16)
		bytes := int(r.next()%4096) + 1
		prev := uint64(0)
		for _, now := range []uint64{0, 100, 500, 2000, 10000} {
			m := testMesh()
			for _, p := range preamble {
				m.Transfer(p.now, p.from, p.to, p.bytes)
			}
			arr := m.Transfer(now, from, to, bytes)
			if arr < prev {
				t.Fatalf("trial %d: probe at t=%d arrived at %d, earlier than the t-earlier probe's %d",
					trial, now, arr, prev)
			}
			prev = arr
		}
	}
}

// TestTransferDoesNotAllocate: Transfer is on the per-message hot path and
// walks its XY path in place, with no path buffer to allocate or keep.
func TestTransferDoesNotAllocate(t *testing.T) {
	m := testMesh()
	now := uint64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		m.Transfer(now, 0, 15, 4096)
		now += 10
	}); allocs != 0 {
		t.Fatalf("Transfer allocates %.1f objects per call; the path must be walked in place", allocs)
	}
}

// TestDegradedLinkAddsLatency checks the fault hook: a mesh with an armed
// injector in a guaranteed degradation window delays transfers and
// accounts the extra cycles, while a nil injector costs nothing.
func TestDegradedLinkAddsLatency(t *testing.T) {
	cfg := fault.Config{Seed: 1, Degrade: 1.0, DegradeWindow: 1 << 40, DegradeExtra: 500}
	m := testMesh()
	m.Faults = fault.New(cfg, m.Size())
	clean := testMesh()
	degraded := m.Transfer(0, 0, 15, 64)
	plain := clean.Transfer(0, 0, 15, 64)
	if degraded <= plain {
		t.Fatalf("degraded transfer (%d) should arrive after the clean one (%d)", degraded, plain)
	}
	if m.DegradedCycles == 0 {
		t.Fatal("DegradedCycles not accounted")
	}
	if clean.DegradedCycles != 0 {
		t.Fatal("clean mesh accrued DegradedCycles")
	}
}

// scaledMesh builds a mesh for an n-processor machine the way the
// scaling sweep does: Table 1 node parameters on the near-square mesh
// MeshFor picks for n (docs/SCALING.md).
func scaledMesh(n int) *Mesh {
	return NewMesh(memsys.Default().ForProcs(n))
}

// TestLatencyMonotoneInHops checks, at every sweep shape, that the
// uncontended cost of a fixed-size message never decreases as the hop
// distance grows: sorting all (src,dst) pairs by Hops must sort them by
// Latency too.
func TestLatencyMonotoneInHops(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		m := scaledMesh(n)
		// maxLat[h] = max latency seen at h hops; minLat[h] = min.
		maxHops := m.Hops(0, n-1)
		minLat := make([]uint64, maxHops+1)
		maxLat := make([]uint64, maxHops+1)
		for i := range minLat {
			minLat[i] = ^uint64(0)
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				h := m.Hops(a, b)
				l := m.Latency(a, b, 64)
				if l < minLat[h] {
					minLat[h] = l
				}
				if l > maxLat[h] {
					maxLat[h] = l
				}
			}
		}
		for h := 1; h <= maxHops; h++ {
			if maxLat[h-1] > minLat[h] {
				t.Errorf("%d procs: latency not monotone in hops: max@%d hops = %d > min@%d hops = %d",
					n, h-1, maxLat[h-1], h, minLat[h])
			}
		}
	}
}

// TestRoutingSymmetricAtScale checks Hops and uncontended Latency are
// symmetric in (src,dst) at every sweep shape — XY routing takes a
// different physical path in each direction, but the dimension-ordered
// hop count and therefore the cost must match.
func TestRoutingSymmetricAtScale(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		m := scaledMesh(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if m.Hops(a, b) != m.Hops(b, a) {
					t.Fatalf("%d procs: Hops(%d,%d)=%d != Hops(%d,%d)=%d",
						n, a, b, m.Hops(a, b), b, a, m.Hops(b, a))
				}
				if la, lb := m.Latency(a, b, 256), m.Latency(b, a, 256); la != lb {
					t.Fatalf("%d procs: Latency(%d,%d)=%d != Latency(%d,%d)=%d",
						n, a, b, la, b, a, lb)
				}
			}
		}
	}
}

// TestMeshGolden4x4 pins the exact per-pair byte costs of the paper's
// 4x4 machine (Table 1: 4-cycle switch, 2-cycle wire, 16-bit links).
// These values back the byte-identical golden outputs — any routing or
// pipelining change that shifts them breaks every committed table.
func TestMeshGolden4x4(t *testing.T) {
	m := scaledMesh(16)
	for _, tc := range []struct {
		from, to, bytes int
		want            uint64
	}{
		{0, 0, 4096, 0},     // local: free
		{0, 1, 2, 6},        // 1 hop, header only
		{0, 1, 64, 68},      // 1 hop, 32 flits: 6 + 31*2
		{0, 5, 64, 74},      // 2 hops (XY: east then south)
		{0, 15, 2, 36},      // corner to corner, header only
		{0, 15, 64, 98},     // corner to corner, 32 flits
		{0, 15, 4096, 4130}, // a full page
		{5, 10, 4096, 4106}, // interior 2-hop page move
	} {
		if got := m.Latency(tc.from, tc.to, tc.bytes); got != tc.want {
			t.Errorf("Latency(%d,%d,%dB) = %d, want %d", tc.from, tc.to, tc.bytes, got, tc.want)
		}
	}
}

// TestScaledShapes checks MeshFor's geometry reaches the mesh layer
// intact: the sweep sizes come out as the expected near-square meshes
// with the matching worst-case hop distance.
func TestScaledShapes(t *testing.T) {
	for _, tc := range []struct{ n, wantDiam int }{
		{16, 6},    // 4x4
		{32, 10},   // 4x8
		{64, 14},   // 8x8
		{256, 30},  // 16x16
		{1024, 62}, // 32x32
	} {
		m := scaledMesh(tc.n)
		if got := m.Size(); got != tc.n {
			t.Errorf("%d procs: mesh covers %d nodes", tc.n, got)
		}
		if got := m.Hops(0, tc.n-1); got != tc.wantDiam {
			t.Errorf("%d procs: corner-to-corner hops = %d, want %d", tc.n, got, tc.wantDiam)
		}
	}
}

func TestMeshStats(t *testing.T) {
	m := testMesh()
	m.Transfer(0, 0, 5, 100)
	if m.Messages != 1 || m.BytesMoved != 100 || m.HopsTotal == 0 {
		t.Fatalf("stats not recorded: %+v", m)
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestRenewIsNew: a mesh renewed in place after traffic, a tracer and an
// injector — for a larger machine, a smaller one and the same one — is
// the mesh NewMesh returns, and times the same transfers the same; renewed
// no larger, it keeps its link array.
func TestRenewIsNew(t *testing.T) {
	for _, n := range []int{64, 4, 16} {
		m := testMesh()
		m.Faults = fault.New(fault.Config{Seed: 1, Degrade: 1.0, DegradeWindow: 1 << 40, DegradeExtra: 500}, 16)
		for i := 0; i < 40; i++ {
			m.Transfer(uint64(i), i%16, (7*i)%16, 256)
		}
		was := &m.linkFree[0]
		p := memsys.Default().ForProcs(n)
		m.Renew(p)
		want := NewMesh(p)
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("mesh renewed for %d nodes differs from a new one", n)
		}
		if kept := &m.linkFree[0] == was; kept != (n <= 16) {
			t.Errorf("mesh renewed from 16 to %d nodes: link array kept %v", n, kept)
		}
		for i := 0; i < 3*n; i++ {
			from, to := i%n, (5*i+1)%n
			if got, want := m.Transfer(uint64(10*i), from, to, 512), want.Transfer(uint64(10*i), from, to, 512); got != want {
				t.Fatalf("%d nodes, transfer %d: %d renewed, %d new", n, i, got, want)
			}
		}
		if m.Bytes() < 8*4*n {
			t.Errorf("a %d-node mesh reports %d bytes", n, m.Bytes())
		}
	}
}

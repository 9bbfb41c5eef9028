// Package memsys models the per-node memory system of the simulated
// network of workstations: the first-level data cache, the TLB, the memory
// bus and the I/O bus, together with the global cost parameters of Table 1
// of the AEC paper (Seidel, Bianchini, Amorim; ICPP 1997).
//
// All times are expressed in 10ns processor cycles, exactly as in the paper.
// Fractional per-word costs (e.g. 2.25 cycles/word) are kept as float64 and
// rounded once per operation, never per word.
package memsys

import (
	"fmt"
	"math"

	"aecdsm/internal/lockpolicy"
)

// Params holds the system parameters of Table 1 of the paper. The zero
// value is not useful; start from Default and override fields as needed.
type Params struct {
	// NumProcs is the number of simulated workstation nodes.
	NumProcs int
	// TLBEntries is the number of TLB entries per node.
	TLBEntries int
	// TLBFillCycles is the TLB fill service time in cycles.
	TLBFillCycles uint64
	// InterruptCycles is the cost of taking any interrupt (message
	// arrival, page fault trap) on the host processor.
	InterruptCycles uint64
	// PageSize is the coherence unit in bytes.
	PageSize int
	// CacheBytes is the total first-level data cache size.
	CacheBytes int
	// CacheLineBytes is the cache line size.
	CacheLineBytes int
	// MemSetupCycles is the memory setup time.
	MemSetupCycles uint64
	// MemPerWordCycles is the memory access time per word.
	MemPerWordCycles float64
	// IOBusSetupCycles is the I/O bus setup time.
	IOBusSetupCycles uint64
	// IOBusPerWordCycles is the I/O bus access time per word.
	IOBusPerWordCycles float64
	// NetPathWidthBits is the network path width (bidirectional).
	NetPathWidthBits int
	// MsgOverheadCycles is the software messaging overhead per message.
	MsgOverheadCycles uint64
	// SwitchCycles is the per-hop switch latency.
	SwitchCycles uint64
	// WireCycles is the per-hop wire latency.
	WireCycles uint64
	// ListPerElemCycles is the protocol list processing cost per element.
	ListPerElemCycles uint64
	// TwinPerWordCycles is the page twinning cost per word (plus memory
	// accesses, which are charged through the memory bus model).
	TwinPerWordCycles float64
	// DiffPerWordCycles is the diff application/creation cost per word
	// (plus memory accesses).
	DiffPerWordCycles float64
	// WordBytes is the machine word size used by all per-word costs.
	WordBytes int
	// MeshW and MeshH give the mesh geometry; MeshW*MeshH must equal
	// NumProcs. Any rectangular shape is valid (including 1xN chains);
	// ForProcs picks the most nearly square factoring automatically.
	MeshW, MeshH int
	// MsgHeaderBytes is the fixed header size added to every message.
	MsgHeaderBytes int

	// Scaling-architecture knobs (docs/SCALING.md). All default off,
	// which reproduces the paper's 16-processor protocol structure
	// byte-for-byte; the -scaling sweep turns them on for large meshes.

	// BarrierRadix selects hierarchical tree combining for barrier
	// fan-in/fan-out: each interior node of a radix-R combining tree
	// aggregates its subtree's barrier traffic. 0 (and any radix >=
	// NumProcs) is the paper's flat barrier — every processor messages
	// the manager directly.
	BarrierRadix int
	// ShardHomes rehomes every shared page across the machine with a
	// deterministic hash instead of honoring the application's static
	// region homes (which the paper's apps mostly pin to processor 0 —
	// a hotspot at 256+ nodes).
	ShardHomes bool
	// ShardManagers assigns lock managers by a deterministic hash of
	// the lock id instead of round-robin (lock % NumProcs), which
	// decorrelates manager placement from application lock numbering.
	ShardManagers bool

	// LockPolicy selects the lock managers' grant discipline
	// (docs/LOCKING.md): "", "fifo" (the paper's baseline, byte-identical
	// to the historical hardwired queue), "mcs", "affinity" or "lease".
	// The name is parsed by internal/lockpolicy at protocol attach time.
	LockPolicy string
}

// Default returns the Table 1 default parameters: a 16-node (4x4 mesh)
// network of workstations with 4KB pages and a 256KB direct-mapped cache.
func Default() Params {
	return Params{
		NumProcs:           16,
		TLBEntries:         128,
		TLBFillCycles:      100,
		InterruptCycles:    4000,
		PageSize:           4096,
		CacheBytes:         256 * 1024,
		CacheLineBytes:     32,
		MemSetupCycles:     9,
		MemPerWordCycles:   2.25,
		IOBusSetupCycles:   12,
		IOBusPerWordCycles: 3,
		NetPathWidthBits:   16,
		MsgOverheadCycles:  400,
		SwitchCycles:       4,
		WireCycles:         2,
		ListPerElemCycles:  6,
		TwinPerWordCycles:  5,
		DiffPerWordCycles:  7,
		WordBytes:          4,
		MeshW:              4,
		MeshH:              4,
		MsgHeaderBytes:     32,
	}
}

// MeshFor factors n into the most nearly square W x H mesh (W <= H).
// Every positive n has a valid shape (primes degenerate to a 1 x n
// chain); the XY-routed mesh model handles any rectangle.
func MeshFor(n int) (w, h int) {
	best := 1
	for c := 1; c*c <= n; c++ {
		if n%c == 0 {
			best = c
		}
	}
	return best, n / best
}

// ForProcs returns a copy of the parameter set resized to n processors
// on the most nearly square mesh. The scaling knobs (BarrierRadix,
// ShardHomes, ShardManagers) are left untouched: callers growing past
// the paper's 16 nodes opt into them explicitly (docs/SCALING.md).
func (p Params) ForProcs(n int) Params {
	p.NumProcs = n
	p.MeshW, p.MeshH = MeshFor(n)
	return p
}

// ShardAssign deterministically maps item i (a page or lock id) to one
// of n processors through a splitmix64-mixed hash. It backs the
// ShardHomes and ShardManagers knobs (docs/SCALING.md): a plain modulo
// keeps consecutive ids on consecutive processors, which preserves
// exactly the correlation with application numbering that sharding is
// meant to break, so the id is scrambled first.
func ShardAssign(i, n int) int {
	z := uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// BackupOf maps a lock manager to the replica node holding its
// replication log (docs/ROBUSTNESS.md): the ring successor, which is as
// good as any deterministic choice, spreads backup load evenly, and never
// picks the manager itself on machines with more than one node. On a
// one-node machine it returns the manager (there is nowhere else to
// replicate to, and nothing for a crash to partition away from).
func BackupOf(mgr, n int) int {
	if n <= 1 {
		return mgr
	}
	return (mgr + 1) % n
}

// Validate reports whether the parameter set is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.NumProcs <= 0:
		return errf("NumProcs must be positive, got %d", p.NumProcs)
	case p.MeshW <= 0 || p.MeshH <= 0:
		return errf("mesh %dx%d has a non-positive dimension", p.MeshW, p.MeshH)
	case p.MeshW*p.MeshH != p.NumProcs:
		return errf("mesh %dx%d does not cover %d processors", p.MeshW, p.MeshH, p.NumProcs)
	case p.BarrierRadix < 0:
		return errf("BarrierRadix must be non-negative, got %d", p.BarrierRadix)
	case !powerOfTwo(p.PageSize):
		return errf("PageSize must be a positive power of two, got %d", p.PageSize)
	case !powerOfTwo(p.CacheLineBytes):
		return errf("CacheLineBytes must be a positive power of two, got %d", p.CacheLineBytes)
	case p.CacheBytes%p.CacheLineBytes != 0 || !powerOfTwo(p.CacheBytes/p.CacheLineBytes):
		// The direct-mapped cache indexes with & (lines-1).
		return errf("cache %dB does not hold a power-of-two number of %dB lines", p.CacheBytes, p.CacheLineBytes)
	case p.WordBytes <= 0:
		return errf("WordBytes must be positive, got %d", p.WordBytes)
	case p.NetPathWidthBits <= 0 || p.NetPathWidthBits%8 != 0:
		return errf("NetPathWidthBits must be a positive multiple of 8, got %d", p.NetPathWidthBits)
	case !powerOfTwo(p.TLBEntries):
		// The direct-mapped TLB indexes with & (entries-1).
		return errf("TLBEntries must be a positive power of two, got %d", p.TLBEntries)
	}
	if _, err := lockpolicy.Parse(p.LockPolicy); err != nil {
		return err
	}
	return nil
}

func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }

// ValidateSpace reports whether the cache model can index a shared space
// of the given size: a cache tag is the line address plus one in 32 bits
// (zero is an empty slot), so the space may hold at most 2^32-1 lines.
func (p Params) ValidateSpace(bytes int) error {
	line := uint64(p.CacheLineBytes)
	if lines := (uint64(bytes) + line - 1) / line; lines > math.MaxUint32 {
		return errf("shared space of %d bytes is %d cache lines of %dB; the cache model's 32-bit tags index at most %d",
			bytes, lines, p.CacheLineBytes, uint32(math.MaxUint32))
	}
	return nil
}

// Words converts a byte count to whole machine words, rounding up.
func (p *Params) Words(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + p.WordBytes - 1) / p.WordBytes
}

// MemCycles returns the cost of moving n bytes through local memory:
// setup plus the per-word access time.
func (p *Params) MemCycles(bytes int) uint64 {
	if bytes <= 0 {
		return 0
	}
	return p.MemSetupCycles + round(p.MemPerWordCycles*float64(p.Words(bytes)))
}

// TwinCycles returns the processor cost of twinning a page of the given
// size (the memory traffic is charged separately through the bus model).
func (p *Params) TwinCycles(bytes int) uint64 {
	return round(p.TwinPerWordCycles * float64(p.Words(bytes)))
}

// DiffCycles returns the processor cost of creating or applying a diff
// covering the given number of bytes of page data scanned or patched.
func (p *Params) DiffCycles(bytes int) uint64 {
	return round(p.DiffPerWordCycles * float64(p.Words(bytes)))
}

// ListCycles returns the protocol list processing cost for n elements.
func (p *Params) ListCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return p.ListPerElemCycles * uint64(n)
}

func round(f float64) uint64 {
	return uint64(f + 0.5)
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

package memsys

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.NumProcs = 0 },
		func(p *Params) { p.MeshW = 3 },
		func(p *Params) { p.PageSize = 3000 },
		func(p *Params) { p.CacheLineBytes = 0 },
		func(p *Params) { p.WordBytes = 0 },
		func(p *Params) { p.NetPathWidthBits = 12 },
		func(p *Params) { p.TLBEntries = 0 },
		func(p *Params) { p.MeshW, p.MeshH = -4, -4 },
		func(p *Params) { p.BarrierRadix = -1 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestParamsValidatePowersOfTwo: the cache and the TLB index with
// & (n-1), so a line size, line count or entry count that is not a power
// of two would silently simulate a smaller structure (96 KB of 32-byte
// lines touches 2048 of its 3072 slots); Validate refuses it by name.
func TestParamsValidatePowersOfTwo(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Params)
		wantErr string // "" = valid
	}{
		{"default", func(*Params) {}, ""},
		{"128KB cache", func(p *Params) { p.CacheBytes = 128 << 10 }, ""},
		{"64B lines", func(p *Params) { p.CacheLineBytes = 64 }, ""},
		{"one line", func(p *Params) { p.CacheBytes = p.CacheLineBytes }, ""},
		{"64 TLB entries", func(p *Params) { p.TLBEntries = 64 }, ""},
		{"one TLB entry", func(p *Params) { p.TLBEntries = 1 }, ""},
		{"96KB cache", func(p *Params) { p.CacheBytes = 96 << 10 }, "power-of-two number of 32B lines"},
		{"no lines", func(p *Params) { p.CacheBytes = 0 }, "power-of-two number of 32B lines"},
		{"ragged cache", func(p *Params) { p.CacheBytes = 256<<10 + 8 }, "power-of-two number of 32B lines"},
		{"24B lines", func(p *Params) { p.CacheLineBytes, p.CacheBytes = 24, 24*8192 }, "CacheLineBytes must be a positive power of two, got 24"},
		{"negative lines", func(p *Params) { p.CacheLineBytes = -32 }, "CacheLineBytes must be a positive power of two, got -32"},
		{"100 TLB entries", func(p *Params) { p.TLBEntries = 100 }, "TLBEntries must be a positive power of two, got 100"},
		{"negative TLB", func(p *Params) { p.TLBEntries = -128 }, "TLBEntries must be a positive power of two, got -128"},
	} {
		p := Default()
		tc.mutate(&p)
		err := p.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidateSpaceBoundary: the cache model tags lines in 32 bits with
// zero reserved for an empty slot, so 2^32-1 lines is the largest space it
// indexes and one byte more is refused.
func TestValidateSpaceBoundary(t *testing.T) {
	for _, lineBytes := range []int{32, 128} {
		p := Default()
		p.CacheLineBytes = lineBytes
		limit := int(uint64(math.MaxUint32) * uint64(lineBytes))
		for _, ok := range []int{0, 1, 4096, limit - 1, limit} {
			if err := p.ValidateSpace(ok); err != nil {
				t.Errorf("%dB lines: %d bytes refused: %v", lineBytes, ok, err)
			}
		}
		err := p.ValidateSpace(limit + 1)
		if err == nil || !strings.Contains(err.Error(), "4294967296 cache lines") {
			t.Errorf("%dB lines: %d bytes: err = %v, want a refusal naming 4294967296 cache lines", lineBytes, limit+1, err)
		}
	}
}

// TestMeshFor pins the generalized geometry helper over square,
// rectangular and prime processor counts: the factoring is the most
// nearly square one, W <= H, and always covers n exactly.
func TestMeshFor(t *testing.T) {
	for _, tc := range []struct{ n, w, h int }{
		{1, 1, 1},
		{2, 1, 2},
		{6, 2, 3},
		{8, 2, 4},
		{12, 3, 4},
		{13, 1, 13}, // prime: 1xN chain
		{16, 4, 4},
		{24, 4, 6},
		{64, 8, 8},
		{96, 8, 12},
		{256, 16, 16},
		{1024, 32, 32},
	} {
		w, h := MeshFor(tc.n)
		if w != tc.w || h != tc.h {
			t.Errorf("MeshFor(%d) = %dx%d, want %dx%d", tc.n, w, h, tc.w, tc.h)
		}
	}
	// Every count in a wide range yields a valid parameter set.
	for n := 1; n <= 300; n++ {
		p := Default().ForProcs(n)
		if err := p.Validate(); err != nil {
			t.Fatalf("ForProcs(%d): %v", n, err)
		}
		if p.MeshW > p.MeshH {
			t.Fatalf("ForProcs(%d): W %d > H %d", n, p.MeshW, p.MeshH)
		}
	}
}

func TestWords(t *testing.T) {
	p := Default()
	for _, tc := range []struct{ bytes, want int }{
		{0, 0}, {-4, 0}, {1, 1}, {4, 1}, {5, 2}, {4096, 1024},
	} {
		if got := p.Words(tc.bytes); got != tc.want {
			t.Errorf("Words(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestMemCycles(t *testing.T) {
	p := Default()
	// 32-byte line: setup 9 + 2.25*8 words = 27.
	if got := p.MemCycles(32); got != 27 {
		t.Errorf("MemCycles(32) = %d, want 27", got)
	}
	if got := p.MemCycles(0); got != 0 {
		t.Errorf("MemCycles(0) = %d, want 0", got)
	}
}

func TestCostHelpers(t *testing.T) {
	p := Default()
	if got := p.TwinCycles(4096); got != 5*1024 {
		t.Errorf("TwinCycles(page) = %d, want %d", got, 5*1024)
	}
	if got := p.DiffCycles(4096); got != 7*1024 {
		t.Errorf("DiffCycles(page) = %d, want %d", got, 7*1024)
	}
	if got := p.ListCycles(10); got != 60 {
		t.Errorf("ListCycles(10) = %d, want 60", got)
	}
	if got := p.ListCycles(-1); got != 0 {
		t.Errorf("ListCycles(-1) = %d, want 0", got)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(256*1024, 32)
	if m := c.Access(0, 32); m != 1 {
		t.Fatalf("first access misses = %d, want 1", m)
	}
	if m := c.Access(0, 32); m != 0 {
		t.Fatalf("second access misses = %d, want 0", m)
	}
	if m := c.Access(0, 64); m != 1 {
		t.Fatalf("extended access misses = %d, want 1 (second line)", m)
	}
	// Conflict: same index, different tag (capacity apart).
	if m := c.Access(256*1024, 32); m != 1 {
		t.Fatalf("conflict access misses = %d, want 1", m)
	}
	if m := c.Access(0, 32); m != 1 {
		t.Fatalf("evicted line misses = %d, want 1", m)
	}
}

func TestCacheInvalidateRange(t *testing.T) {
	c := NewCache(1024, 32)
	c.Access(0, 256)
	c.InvalidateRange(64, 64)
	if m := c.Access(0, 64); m != 0 {
		t.Errorf("untouched lines should hit, got %d misses", m)
	}
	if m := c.Access(64, 64); m != 2 {
		t.Errorf("invalidated lines should miss, got %d misses, want 2", m)
	}
	// Huge range resets everything.
	c.Access(0, 1024)
	c.InvalidateRange(0, 1<<20)
	if m := c.Access(0, 1024); m != 32 {
		t.Errorf("after full invalidation want 32 misses, got %d", m)
	}
}

// TestCacheMatchesWideTagOracle: the 32-bit, zero-is-empty tags behave as
// full-width tags with an explicit empty marker do, over random accesses
// and invalidations spread across everything ValidateSpace admits — line
// 0 in a fresh cache and the last indexable line included.
func TestCacheMatchesWideTagOracle(t *testing.T) {
	const lines, lineBytes = 64, 32
	top := int(uint64(math.MaxUint32)*lineBytes) - 1 // the last admitted byte
	f := func(ops []uint32, ranges []uint8) bool {
		c := NewCache(lines*lineBytes, lineBytes)
		oracle := make([]int, lines) // line+1, 0 = empty, at full width
		for i, op := range ops {
			// Low, conflicting and top-of-space addresses in turn.
			addr := int(op) % (4 * lines * lineBytes)
			switch i % 3 {
			case 1:
				addr = int(op) * lineBytes
			case 2:
				addr = top - int(op)%(2*lines*lineBytes)
			}
			n := 1
			if i < len(ranges) {
				n += int(ranges[i])
			}
			n = min(n, top+1-addr)
			first, last := addr/lineBytes, (addr+n-1)/lineBytes
			if op%5 == 0 {
				c.InvalidateRange(addr, n)
				for line := first; line <= last; line++ {
					if oracle[line%lines] == line+1 {
						oracle[line%lines] = 0
					}
				}
				continue
			}
			want := 0
			for line := first; line <= last; line++ {
				if oracle[line%lines] != line+1 {
					oracle[line%lines] = line + 1
					want++
				}
			}
			if got := c.Access(addr, n); got != want {
				t.Logf("op %d: Access(%d, %d) = %d misses, oracle %d", i, addr, n, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	c := NewCache(lines*lineBytes, lineBytes)
	if c.Access(0, 1) != 1 || c.Access(top, 1) != 1 || c.Access(0, 1) != 0 || c.Access(top, 1) != 0 {
		t.Fatal("line 0 and the last line must each miss once in a fresh cache, then hit")
	}
}

// TestBoundedCacheMatchesUnbounded: a cache told its space's extent and
// one never told report the same misses, access by access, and the same
// counters over random access, invalidate and reset streams inside the
// bound — for spaces below, at and above the cache's size — while holding
// only the slots the space can index. The stream opens with the calls a
// cache must shrug off before its first access.
func TestBoundedCacheMatchesUnbounded(t *testing.T) {
	const lines, lineBytes = 64, 32
	for _, spaceLines := range []int{1, 5, lines - 1, lines, lines + 1, 4 * lines} {
		spaceBytes := spaceLines*lineBytes - 7 // the last line is partly outside: the bound rounds up
		rng := rand.New(rand.NewSource(int64(spaceLines)))
		bounded, plain := NewCache(lines*lineBytes, lineBytes), NewCache(lines*lineBytes, lineBytes)
		bounded.Bound(spaceBytes)
		for _, c := range []*Cache{bounded, plain} {
			c.InvalidateRange(0, spaceBytes)
			c.InvalidateRange(0, 1)
			c.Reset()
		}
		if bounded.tags != nil || plain.tags != nil {
			t.Fatalf("space of %d lines: tags allocated before the first access", spaceLines)
		}
		for op := 0; op < 4000; op++ {
			addr := rng.Intn(spaceBytes)
			n := min(1+rng.Intn(6*lineBytes), spaceBytes-addr)
			switch k := rng.Intn(50); {
			case k == 0:
				bounded.Reset()
				plain.Reset()
			case k < 10:
				bounded.InvalidateRange(addr, n)
				plain.InvalidateRange(addr, n)
			default:
				if got, want := bounded.Access(addr, n), plain.Access(addr, n); got != want {
					t.Fatalf("space of %d lines, op %d: Access(%d, %d) = %d misses bounded, %d unbounded",
						spaceLines, op, addr, n, got, want)
				}
			}
		}
		if bounded.Hits != plain.Hits || bounded.Misses != plain.Misses {
			t.Fatalf("space of %d lines: %d hits, %d misses bounded; %d, %d unbounded",
				spaceLines, bounded.Hits, bounded.Misses, plain.Hits, plain.Misses)
		}
		if got, want := len(bounded.tags), min(lines, spaceLines+1); got != want || len(plain.tags) != lines {
			t.Fatalf("space of %d lines: %d slots bounded, want %d; %d unbounded, want %d",
				spaceLines, got, want, len(plain.tags), lines)
		}
	}
}

// TestBoundedCacheRefusesBeyondBound: an address past the space is a bug
// in whoever bounded the cache; it is named, not absorbed — as a cache's
// first access and after others.
func TestBoundedCacheRefusesBeyondBound(t *testing.T) {
	for _, warm := range []bool{false, true} {
		c := NewCache(64*32, 32)
		c.Bound(5 * 32)
		if warm {
			c.Access(0, 5*32)
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"[0xa0, 0xa4)", "5 lines"} {
					if !strings.Contains(msg, want) {
						t.Errorf("warm=%v: panic %q does not name %q", warm, msg, want)
					}
				}
			}()
			c.Access(5*32, 4)
			t.Errorf("warm=%v: access beyond the bound went through", warm)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Bound after the first access went through")
		}
	}()
	c := NewCache(64*32, 32)
	c.Access(0, 1)
	c.Bound(5 * 32)
}

// TestCacheAllocatesOnFirstAccess: building and bounding a cache costs the
// record alone; the tags come with the first access, once.
func TestCacheAllocatesOnFirstAccess(t *testing.T) {
	var c *Cache
	if n := testing.AllocsPerRun(100, func() {
		c = NewCache(256*1024, 32)
		c.Bound(3 * 4096)
	}); n > 1 {
		t.Errorf("NewCache + Bound: %v allocations, want the Cache itself", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Access(4096, 64) }); n != 0 {
		t.Errorf("Access on a warm cache: %v allocations", n)
	}
	if got, want := len(c.tags), 3*4096/32+1; got != want {
		t.Errorf("%d slots for a 3-page space, want %d", got, want)
	}
}

func TestCacheAccessProperty(t *testing.T) {
	// Accessing the same range twice in a row never misses the second
	// time, for any range.
	f := func(addr uint16, n uint8) bool {
		c := NewCache(4096, 32)
		c.Access(int(addr), int(n)+1)
		return c.Access(int(addr), int(n)+1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(128)
	if !tlb.Access(5) {
		t.Fatal("first access should miss")
	}
	if tlb.Access(5) {
		t.Fatal("second access should hit")
	}
	if !tlb.Access(5 + 128) {
		t.Fatal("conflicting page should miss")
	}
	if tlb.Access(5 + 128) {
		t.Fatal("conflicting page now resident")
	}
	if !tlb.Access(5) {
		t.Fatal("evicted page should miss again")
	}
}

// TestTagsFromDirtyMemory: a cache that takes its tags from a supplier
// clears them — the slots it gets here hold exactly the tags of the lines
// about to be accessed, which unclear would all hit — takes them once, at
// the first access, and behaves as its heap-backed twin from then on.
func TestTagsFromDirtyMemory(t *testing.T) {
	var asked []int
	dirty := func(words int) []uint32 {
		asked = append(asked, words)
		tags := make([]uint32, words)
		for i := range tags {
			tags[i] = uint32(i) // slot i holding tag i: line i-1
		}
		return tags
	}
	c, plain := NewCache(64*32, 32), NewCache(64*32, 32)
	c.Bound(40 * 32)
	c.TagsFrom(dirty)
	if len(asked) != 0 {
		t.Fatalf("tags taken before the first access: %v", asked)
	}
	for round := 0; round < 2; round++ {
		for addr := 0; addr < 40*32; addr += 48 {
			n := min(40, 40*32-addr)
			if got, want := c.Access(addr, n), plain.Access(addr, n); got != want {
				t.Fatalf("round %d: Access(%d, %d) = %d misses on dirty tags, %d on fresh ones", round, addr, n, got, want)
			}
		}
	}
	if c.Hits != plain.Hits || c.Misses != plain.Misses {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", c.Hits, c.Misses, plain.Hits, plain.Misses)
	}
	if len(asked) != 1 || asked[0] != 41 {
		t.Fatalf("supplier asked for %v words, want the cache's 41 slots, once", asked)
	}
	defer func() {
		if recover() == nil {
			t.Error("TagsFrom after the first access went through")
		}
	}()
	c.TagsFrom(dirty)
}

func TestBusFIFO(t *testing.T) {
	b := NewBus(10, 2)
	done1 := b.Transfer(100, 5) // occupies 10+10=20 -> done 120
	if done1 != 120 {
		t.Fatalf("done1 = %d, want 120", done1)
	}
	// A requester arriving at 110 queues behind: starts 120, done 140.
	done2 := b.Transfer(110, 5)
	if done2 != 140 {
		t.Fatalf("done2 = %d, want 140", done2)
	}
	if b.WaitCycles != 10 {
		t.Fatalf("WaitCycles = %d, want 10", b.WaitCycles)
	}
	// An idle gap: request at 1000 starts immediately.
	if done3 := b.Transfer(1000, 0); done3 != 1010 {
		t.Fatalf("done3 = %d, want 1010", done3)
	}
}

func TestBusMonotonic(t *testing.T) {
	// Completion times never go backwards regardless of request times.
	f := func(times []uint16) bool {
		b := NewBus(5, 1.5)
		var last uint64
		for _, tm := range times {
			done := b.Transfer(uint64(tm), 3)
			if done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardAssign(t *testing.T) {
	// In range, deterministic, and actually spreading: across the first
	// 4096 ids on 256 processors every processor gets some assignment,
	// and consecutive ids do not map consecutively (the correlation the
	// hash exists to break).
	const n = 256
	counts := make([]int, n)
	consecutive := 0
	for i := 0; i < 4096; i++ {
		a := ShardAssign(i, n)
		if a < 0 || a >= n {
			t.Fatalf("ShardAssign(%d, %d) = %d out of range", i, n, a)
		}
		if a != ShardAssign(i, n) {
			t.Fatalf("ShardAssign(%d, %d) not deterministic", i, n)
		}
		counts[a]++
		if ShardAssign(i+1, n) == (a+1)%n {
			consecutive++
		}
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("processor %d never assigned in 4096 ids", p)
		}
	}
	if consecutive > 64 {
		t.Fatalf("%d/4096 consecutive ids map to consecutive processors; hash is not mixing", consecutive)
	}
}

// Package bitset provides the growable bitsets behind every per-processor
// membership structure in the protocols (barrier copysets, sharer masks,
// invalidation sets). The seed sized these as uint32 words, which capped
// the machine at 32 processors; a Set holds any processor count, so the
// same protocol code runs at 16 and at 1024 nodes (docs/SCALING.md).
//
// Sets are plain []uint64 slices: the zero value is empty and usable,
// copies share storage like any slice, and iteration order is always
// ascending bit index, so every use is deterministic — a requirement of
// the simulator's reproducibility contract (docs/LINTING.md, determinism).
package bitset

import "math/bits"

// Set is a growable bitset over non-negative integers. Operations that
// add bits grow the backing slice as needed; operations that test or
// remove bits never allocate.
type Set []uint64

const wordBits = 64

// New returns a set with capacity for n bits preallocated (all clear).
// n <= 0 yields an empty set.
func New(n int) Set {
	if n <= 0 {
		return nil
	}
	return make(Set, (n+wordBits-1)/wordBits)
}

// With is New(n) plus the given bits set — a literal-style constructor
// for tests and initialization sites.
func With(n int, bits ...int) Set {
	s := New(n)
	for _, b := range bits {
		s = s.Add(b)
	}
	return s
}

// Add returns the set with bit i set, growing if needed. The receiver's
// storage is reused when it is large enough, so the idiomatic call is
// s = s.Add(i).
func (s Set) Add(i int) Set {
	w := i / wordBits
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << uint(i%wordBits)
	return s
}

// Remove clears bit i (a no-op when i is beyond the backing slice).
func (s Set) Remove(i int) {
	w := i / wordBits
	if w < len(s) {
		s[w] &^= 1 << uint(i%wordBits)
	}
}

// Has reports whether bit i is set.
func (s Set) Has(i int) bool {
	w := i / wordBits
	return w < len(s) && s[w]&(1<<uint(i%wordBits)) != 0
}

// None reports whether no bit is set.
func (s Set) None() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Or returns the union s | o, reusing s's storage when it is large
// enough (call as s = s.Or(o)).
func (s Set) Or(o Set) Set {
	for len(s) < len(o) {
		s = append(s, 0)
	}
	for i, w := range o {
		s[i] |= w
	}
	return s
}

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Min returns the smallest set bit, or -1 when the set is empty.
func (s Set) Min() int {
	for wi, w := range s {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendBits appends the set bits in ascending order to dst and returns
// it — the allocation-conscious way to materialize a target list.
func (s Set) AppendBits(dst []int) []int {
	s.ForEach(func(i int) { dst = append(dst, i) })
	return dst
}

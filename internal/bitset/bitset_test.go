package bitset

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	var s Set
	if !s.None() || s.Count() != 0 || s.Has(0) || s.Has(1000) {
		t.Fatal("zero set should be empty")
	}
	s = s.Add(3)
	s = s.Add(64)
	s = s.Add(200)
	if s.None() || s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	for _, b := range []int{3, 64, 200} {
		if !s.Has(b) {
			t.Fatalf("missing bit %d", b)
		}
	}
	if s.Has(2) || s.Has(65) || s.Has(199) {
		t.Fatal("unexpected bits set")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("Remove failed")
	}
	s.Remove(100000) // beyond storage: no-op
	if s.Count() != 2 {
		t.Fatal("out-of-range Remove mutated the set")
	}
}

func TestForEachAscending(t *testing.T) {
	s := With(300, 299, 0, 64, 63, 128)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 64, 128, 299}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if b := s.AppendBits(nil); len(b) != len(want) || b[0] != 0 || b[4] != 299 {
		t.Fatalf("AppendBits = %v", b)
	}
}

func TestMin(t *testing.T) {
	if (Set{}).Min() != -1 {
		t.Fatal("empty Min should be -1")
	}
	if got := With(130, 129, 70).Min(); got != 70 {
		t.Fatalf("Min = %d, want 70", got)
	}
}

func TestOr(t *testing.T) {
	a := With(64, 1, 5)
	b := With(200, 5, 190)
	a = a.Or(b)
	for _, bit := range []int{1, 5, 190} {
		if !a.Has(bit) {
			t.Fatalf("union missing %d", bit)
		}
	}
	if a.Count() != 3 {
		t.Fatalf("union %v, want [1 5 190]", a.AppendBits(nil))
	}
}

func TestClone(t *testing.T) {
	a := With(100, 64, 99)
	c := a.Clone()
	a.Remove(64)
	if !c.Has(64) || !c.Has(99) || c.Count() != 2 {
		t.Fatal("Clone shares storage")
	}
	if (Set{}).Clone() != nil {
		t.Fatal("empty Clone should be nil")
	}
}

// TestNewEmpty: a non-positive size yields the empty set, which grows on
// Add like any other.
func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		s := New(n)
		if !s.None() || s.Count() != 0 || s.Min() != -1 {
			t.Fatalf("New(%d) = %v, want empty", n, s)
		}
		if s = s.Add(70); !s.Has(70) || s.Count() != 1 {
			t.Fatalf("New(%d).Add(70) = %v", n, s)
		}
	}
}

// TestMirrorsMap checks the set against a map-of-bools oracle over random
// operation sequences, covering growth across word boundaries.
func TestMirrorsMap(t *testing.T) {
	f := func(ops []uint16) bool {
		var s Set
		oracle := map[int]bool{}
		for _, op := range ops {
			bit := int(op % 520) // spans many 64-bit words
			switch (op >> 12) % 3 {
			case 0:
				s = s.Add(bit)
				oracle[bit] = true
			case 1:
				s.Remove(bit)
				delete(oracle, bit)
			case 2:
				if s.Has(bit) != oracle[bit] {
					return false
				}
			}
		}
		if s.Count() != len(oracle) {
			return false
		}
		ok := true
		s.ForEach(func(i int) {
			if !oracle[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

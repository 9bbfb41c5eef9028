package topo

import "testing"

// checkTree validates the structural invariants that the barrier
// implementations rely on: node 0 is the root, every other node has a
// parent whose children list contains it, subtree sizes are consistent,
// and subtrees partition the id space.
func checkTree(t *testing.T, tr Tree) {
	t.Helper()
	n := tr.N()
	if tr.Parent(0) != -1 {
		t.Fatalf("n=%d radix=%d: root parent = %d", n, tr.radix, tr.Parent(0))
	}
	if got := tr.SubtreeSize(0); got != n {
		t.Fatalf("n=%d radix=%d: root subtree = %d", n, tr.radix, got)
	}
	for i := 1; i < n; i++ {
		p := tr.Parent(i)
		if p < 0 || p >= n || p == i {
			t.Fatalf("n=%d radix=%d: Parent(%d) = %d", n, tr.radix, i, p)
		}
		found := false
		for _, c := range tr.Children(p) {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("n=%d radix=%d: %d not in Children(%d) = %v",
				n, tr.radix, i, p, tr.Children(p))
		}
	}
	for i := 0; i < n; i++ {
		sum := 1
		prev := -1
		for _, c := range tr.Children(i) {
			if c <= prev {
				t.Fatalf("n=%d radix=%d: children of %d not ascending: %v",
					n, tr.radix, i, tr.Children(i))
			}
			prev = c
			if tr.Parent(c) != i {
				t.Fatalf("n=%d radix=%d: Parent(%d) = %d, want %d",
					n, tr.radix, c, tr.Parent(c), i)
			}
			sum += tr.SubtreeSize(c)
		}
		if sum != tr.SubtreeSize(i) {
			t.Fatalf("n=%d radix=%d: subtree of %d: children sum %d != size %d",
				n, tr.radix, i, sum, tr.SubtreeSize(i))
		}
	}
}

func TestTreeInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 64, 100, 256, 1024} {
		for _, radix := range []int{0, 2, 3, 4, 8, 16, 64} {
			checkTree(t, New(n, radix))
		}
	}
}

func TestFlatShapes(t *testing.T) {
	// Radix 0, radix >= n and radix 1 all normalize to the seed's flat
	// barrier: every node a direct child of processor 0.
	for _, radix := range []int{0, 1, 16, 100} {
		tr := New(16, radix)
		if !tr.Flat() {
			t.Fatalf("radix %d at n=16 should be flat", radix)
		}
		if got := len(tr.Children(0)); got != 15 {
			t.Fatalf("flat root children = %d, want 15", got)
		}
		for i := 1; i < 16; i++ {
			if tr.Parent(i) != 0 || len(tr.Children(i)) != 0 || tr.SubtreeSize(i) != 1 {
				t.Fatalf("flat node %d misshapen", i)
			}
		}
	}
}

func TestRadix4At64(t *testing.T) {
	tr := New(64, 4)
	if tr.Flat() {
		t.Fatal("64 @ radix 4 should not be flat")
	}
	// Root children: 1,2,3 (stride 1), 4,8,12 (stride 4), 16,32,48.
	want := []int{1, 2, 3, 4, 8, 12, 16, 32, 48}
	got := tr.Children(0)
	if len(got) != len(want) {
		t.Fatalf("root children = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("root children = %v, want %v", got, want)
		}
	}
	if tr.SubtreeSize(16) != 16 || tr.SubtreeSize(4) != 4 || tr.SubtreeSize(3) != 1 {
		t.Fatal("subtree sizes wrong")
	}
	if tr.Parent(48) != 0 || tr.Parent(49) != 48 || tr.Parent(52) != 48 || tr.Parent(63) != 60 {
		t.Fatal("parents wrong")
	}
}

func TestRaggedTail(t *testing.T) {
	// 100 nodes at radix 8: the last block is partial; invariants are
	// covered by checkTree, here we pin the clipping behaviour.
	tr := New(100, 8)
	if got := tr.SubtreeSize(96); got != 4 {
		t.Fatalf("SubtreeSize(96) = %d, want 4", got)
	}
	kids := tr.Children(96)
	if len(kids) != 3 || kids[0] != 97 || kids[2] != 99 {
		t.Fatalf("Children(96) = %v", kids)
	}
}

func TestArrivalDest(t *testing.T) {
	// Flat: everyone messages the manager; the manager self-delivers.
	flat := New(16, 0)
	for i := 0; i < 16; i++ {
		want := 0
		if got := flat.ArrivalDest(i); got != want {
			t.Fatalf("flat ArrivalDest(%d) = %d", i, got)
		}
	}
	// Tree: interior nodes self-deliver, leaves go to their parent.
	tr := New(64, 4)
	for _, tc := range []struct{ i, want int }{
		{0, 0}, {4, 4}, {16, 16}, {1, 0}, {5, 4}, {17, 16}, {63, 60},
	} {
		if got := tr.ArrivalDest(tc.i); got != tc.want {
			t.Fatalf("ArrivalDest(%d) = %d, want %d", tc.i, got, tc.want)
		}
	}
	if New(1, 4).ArrivalDest(0) != 0 {
		t.Fatal("single-node tree must self-deliver")
	}
}

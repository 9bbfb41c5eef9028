// Package topo provides the combining-tree topology used by the barrier
// implementations of every protocol in the repository (aec, tm, munin).
//
// The paper's machine is 16 processors, where a flat barrier — every
// processor messaging one manager — is perfectly adequate. At 256 or 1024
// processors the manager becomes an O(N) serialization point, so the
// protocols combine barrier traffic up a radix-R tree instead: each
// interior node aggregates the arrivals of its subtree into one upstream
// message, and distribution fans out along the same edges. The radix comes
// from memsys.Params.BarrierRadix; radix 0 (the default) keeps the exact
// flat fan-in of the paper, byte-identical to the seed simulator at any
// processor count (docs/SCALING.md).
//
// The tree is the classic block-representative shape: node i is the
// representative of the aligned block [i, i+R^level(i)), where level(i) is
// the largest l with i % R^l == 0. Its parent is the representative of the
// enclosing block. Node 0 is always the root, so the barrier manager stays
// on processor 0 regardless of the radix. Subtrees are contiguous id
// ranges, which keeps all fan-in/fan-out ordering deterministic.
package topo

// Tree is a combining tree over nodes 0..N-1. The zero value is not
// useful; build one with New.
type Tree struct {
	n     int
	radix int // normalized: 0 means flat (every node a direct child of 0)
}

// New builds a tree over n nodes with the given radix. radix <= 1 or
// radix >= n yields the flat (single-level) tree, which is exactly the
// seed simulator's barrier shape.
func New(n, radix int) Tree {
	if radix <= 1 || radix >= n {
		radix = 0
	}
	return Tree{n: n, radix: radix}
}

// N returns the node count.
func (t Tree) N() int { return t.n }

// Flat reports whether the tree is single-level (every node a direct
// child of the root).
func (t Tree) Flat() bool { return t.radix == 0 }

// level returns the largest l such that i is a multiple of radix^l,
// together with radix^l (the node's block stride). The root's level is
// the height of the tree.
func (t Tree) level(i int) (l int, stride int) {
	stride = 1
	if t.Flat() {
		if i == 0 {
			return 1, t.n
		}
		return 0, 1
	}
	for stride < t.n {
		next := stride * t.radix
		if i%next != 0 {
			break
		}
		l++
		stride = next
	}
	return l, stride
}

// Parent returns the tree parent of node i, or -1 for the root.
func (t Tree) Parent(i int) int {
	if i == 0 {
		return -1
	}
	if t.Flat() {
		return 0
	}
	_, stride := t.level(i)
	enclosing := stride * t.radix
	return i - i%enclosing
}

// SubtreeSize returns the number of nodes in i's subtree (including i).
// Subtrees are contiguous: node i covers [i, i+stride) clipped to N.
func (t Tree) SubtreeSize(i int) int {
	_, stride := t.level(i)
	end := i + stride
	if end > t.n {
		end = t.n
	}
	return end - i
}

// ArrivalDest returns the node to which i sends its own barrier
// arrival: interior nodes (and the root) self-deliver, so their service
// context can combine it with the rest of their subtree's traffic;
// leaves send straight to their parent. In the flat tree this is the
// seed's exact pattern — the manager self-delivers, everyone else
// messages the manager directly.
func (t Tree) ArrivalDest(i int) int {
	if i != 0 && t.SubtreeSize(i) == 1 {
		return t.Parent(i)
	}
	return i
}

// AppendChildren appends the direct children of node i to dst in
// ascending id order and returns it.
func (t Tree) AppendChildren(dst []int, i int) []int {
	if t.Flat() {
		if i == 0 {
			for q := 1; q < t.n; q++ {
				dst = append(dst, q)
			}
		}
		return dst
	}
	l, _ := t.level(i)
	stride := 1
	for cl := 0; cl < l && i+stride < t.n; cl++ {
		for k := 1; k < t.radix; k++ {
			c := i + k*stride
			if c >= t.n {
				break
			}
			dst = append(dst, c)
		}
		stride *= t.radix
	}
	return dst
}

// Children returns the direct children of node i in ascending id order.
func (t Tree) Children(i int) []int { return t.AppendChildren(nil, i) }

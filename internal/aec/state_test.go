package aec

import (
	"fmt"
	"testing"

	"aecdsm/internal/mem"
)

// TestWithDiffLeavesChain: a chain is shared by reference, so withDiff,
// the one way a chain grows, returns a copy and leaves the chain it was
// given — its length and every slot of its backing array, spare capacity
// included — as it was.
func TestWithDiffLeavesChain(t *testing.T) {
	diff := func(pg int) *mem.Diff { return &mem.Diff{Page: pg} }
	backing := make([]*mem.Diff, 4)
	chain := append(backing[:0], diff(2), diff(5))
	for _, tc := range []struct {
		page int
		want string
	}{{0, "[0 2 5]"}, {3, "[2 3 5]"}, {7, "[2 5 7]"}} {
		got := withDiff(chain, diff(tc.page))
		if pages := fmt.Sprint(chainPages(got)); pages != tc.want {
			t.Errorf("inserting page %d gives pages %s, want %s", tc.page, pages, tc.want)
		}
		if len(chain) != 2 || backing[0].Page != 2 || backing[1].Page != 5 || backing[2] != nil || backing[3] != nil {
			t.Fatalf("inserting page %d changed the chain it was given: len %d, backing %v", tc.page, len(chain), backing)
		}
		if d := chainDiff(got, tc.page); d == nil || d.Page != tc.page {
			t.Errorf("chainDiff finds %v for page %d", d, tc.page)
		}
	}
	if d := chainDiff(chain, 3); d != nil {
		t.Errorf("chainDiff finds page 3 in a chain without it: %v", d)
	}
}

package mem

import "testing"

// PoisonRecycled makes every diff encoding recycled until the test ends
// come back filled with 0xA5, so that a reader of a diff after its maker
// recycled it — the ownership rule's violation — reads garbage. For tests
// in this package and in mem_test, which can reach the protocols and the
// harness built on top of this one.
func PoisonRecycled(t testing.TB) {
	poisonRecycled = true
	t.Cleanup(func() { poisonRecycled = false })
}

package harness

import "testing"

// PoisonReleased makes every region released until the test ends come back
// filled with 0xA5, bytes and tags, so that a reader of a finished run's
// memory — the lifetime rule's violation — reads garbage. For tests in
// this package and in harness_test, which can reach the packages built on
// top of this one.
func PoisonReleased(t testing.TB) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

package harness

import "testing"

// PoisonReleased makes every arena released until the test ends come back
// poisoned: its region filled with 0xA5, bytes and tags, and its engine's
// clocks and counters overwritten with 0xA5 bytes and its statistics
// dropped (sim.Engine.Poison), so that a reader of a finished run's memory
// or engine — the lifetime rule's violation — reads garbage. For tests in
// this package and in harness_test, which can reach the packages built on
// top of this one.
func PoisonReleased(t testing.TB) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

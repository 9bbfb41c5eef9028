// Package clean breaks no dsmvet rule.
package clean

// Sum adds.
func Sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

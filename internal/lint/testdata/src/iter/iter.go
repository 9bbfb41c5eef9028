// Package iter is the fixture stand-in for the standard library's iter
// package; the singlethread analyzer recognizes Pull and Pull2 by import
// path and name.
package iter

// Seq is an iterator over sequences of individual values.
type Seq[V any] func(yield func(V) bool)

// Seq2 is an iterator over sequences of pairs of values.
type Seq2[K, V any] func(yield func(K, V) bool)

// Pull runs seq on a coroutine of the caller.
func Pull[V any](seq Seq[V]) (next func() (V, bool), stop func()) { return nil, nil }

// Pull2 runs seq on a coroutine of the caller.
func Pull2[K, V any](seq Seq2[K, V]) (next func() (K, V, bool), stop func()) { return nil, nil }

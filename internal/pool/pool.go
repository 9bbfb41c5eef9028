// Package pool holds the simulator's two recycling types. The rule that
// makes recycling safe — nothing a recycled object held may reach its next
// user — is carried by Put, so a call site cannot get it wrong. Plain
// slices inside: the core is single-runner.
package pool

// Of recycles *T records. The zero value is an empty pool.
type Of[T any] struct {
	idle []*T
	made int
}

// Get returns a zero record: the one most recently Put, or a new one.
func (p *Of[T]) Get() *T {
	if n := len(p.idle); n > 0 {
		x := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return x
	}
	p.made++
	return new(T)
}

// Put zeroes *x and keeps it for a later Get. The caller must hold no
// other reference to x.
func (p *Of[T]) Put(x *T) {
	var zero T
	*x = zero
	p.idle = append(p.idle, x)
}

// Made reports how many records Get has allocated.
func (p *Of[T]) Made() int { return p.made }

// Idle reports how many records are waiting for a Get; it equals Made when
// none is in use.
func (p *Of[T]) Idle() int { return len(p.idle) }

// Slices recycles the backing arrays of []T buffers. T must hold no
// pointers: Put truncates, it does not clear, so elements survive in the
// spare capacity until the next user overwrites them.
type Slices[T any] struct{ idle [][]T }

// Get returns a recycled buffer at length 0, or nil when none is idle.
func (p *Slices[T]) Get() []T {
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	s := p.idle[n-1]
	p.idle = p.idle[:n-1]
	return s
}

// Put keeps s's backing array, truncated to length 0; a slice without
// capacity has nothing to keep.
func (p *Slices[T]) Put(s []T) {
	if cap(s) > 0 {
		p.idle = append(p.idle, s[:0])
	}
}

// Package poolreset exercises the pool-hygiene rule: values recycled
// onto *Free fields must be field-reset, and reset() on a pooled type
// must clear every field.
package poolreset

// item is pooled (element of itemFree) with a compliant reset.
type item struct {
	a, b int
	buf  []byte
}

func (it *item) reset() { *it = item{} }

// leaky is pooled but its reset forgets the payload field.
type leaky struct {
	n       int
	payload []byte
	seen    bool
}

func (lk *leaky) reset() { // want `reset leaves field payload stale`
	lk.n = 0
	lk.seen = false
}

// fieldwise is pooled and resets every field explicitly — also fine.
type fieldwise struct {
	x, y int
}

func (f *fieldwise) reset() {
	f.x = 0
	f.y = 0
}

// loose is NOT pooled anywhere, so its partial reset is out of scope.
type loose struct {
	a, b int
}

func (l *loose) reset() { l.a = 0 }

type pools struct {
	itemFree  []*item
	leakyFree []*leaky
	fwFree    []*fieldwise
	bufFree   [][]byte
}

// recycleViaReset recycles after the type's reset method: clean.
func (p *pools) recycleViaReset(it *item) {
	it.reset()
	p.itemFree = append(p.itemFree, it)
}

// recycleViaClear recycles after an inline whole-value clear: clean.
func (p *pools) recycleViaClear(it *item) {
	*it = item{}
	p.itemFree = append(p.itemFree, it)
}

// recycleSlice recycles a length-zero reslice: clean (capacity is the
// whole point; length zero means no element survives).
func (p *pools) recycleSlice(b []byte) {
	p.bufFree = append(p.bufFree, b[:0])
}

// recycleDirty recycles without any reset: the previous life's fields
// leak into the next allocation.
func (p *pools) recycleDirty(it *item) {
	p.itemFree = append(p.itemFree, it) // want `recycled onto itemFree without a field reset`
}

// recycleFullSlice recycles a slice without truncating it.
func (p *pools) recycleFullSlice(b []byte) {
	p.bufFree = append(p.bufFree, b) // want `recycled onto bufFree without a field reset`
}

// recycleWrongOrder resets only after the append: still dirty at the
// moment the value enters the pool.
func (p *pools) recycleWrongOrder(it *item) {
	p.itemFree = append(p.itemFree, it) // want `recycled onto itemFree without a field reset`
	it.reset()
}

// recycleOtherReset resets one object but recycles another.
func (p *pools) recycleOtherReset(a, b *fieldwise) {
	a.reset()
	p.fwFree = append(p.fwFree, b) // want `recycled onto fwFree without a field reset`
}

// owner reaches its pools through another struct, the way sim.Engine
// reaches the reliable transport's txFree (e.rel.txFree): the rule looks
// at the field the append lands in, however long the path to it.
type owner struct{ p *pools }

func (o *owner) recycleNested(it *item) {
	it.reset()
	o.p.itemFree = append(o.p.itemFree, it)
}

func (o *owner) recycleNestedDirty(it *item) {
	o.p.itemFree = append(o.p.itemFree, it) // want `recycled onto itemFree without a field reset`
}

// appendElsewhere appends to a non-pool field: out of scope.
type other struct{ items []*item }

func (o *other) keep(it *item) {
	o.items = append(o.items, it)
}

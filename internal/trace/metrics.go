package trace

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
)

// Metrics is an aggregating sink: instead of retaining events it folds
// them into a per-run summary — lock hold/wait time histograms, LAP
// accuracy per lock, diff volume per page, and message totals — exported
// as JSON. It answers the paper's §5 attribution questions ("where do the
// cycles go, and why") without storing the full stream.
type Metrics struct {
	events uint64

	locks map[int]*lockAgg
	pages map[int]*pageAgg

	// In-flight episodes keyed by (proc, lock).
	reqAt   map[[2]int]uint64
	grantAt map[[2]int]uint64
	// relAt stamps a processor's last release of a lock, closing the
	// release -> next-request gap episode (the analytical predictor's
	// think time, internal/predict).
	relAt map[[2]int]uint64
	// waiting mirrors each lock's waiting-queue membership from
	// lock-enqueue/lock-grant events, backing the queue-length histogram.
	waiting map[int]map[int]bool
	// lockRelAt stamps each lock's latest release (any holder), opening a
	// handoff episode: it closes at the next grant IF that grantee was
	// already waiting when the release happened, so the interval is pure
	// serialized handoff (release-side diff/push work, manager processing,
	// messaging) with no idle time in it.
	lockRelAt map[int]uint64

	msgs      uint64
	msgBytes  uint64
	netWaitCy uint64
}

type lockAgg struct {
	acquires uint64
	hits     uint64
	misses   uint64
	pushes   uint64
	pushByte uint64
	notices  uint64
	bypasses uint64
	renewals uint64
	hold     Histogram
	wait     Histogram
	gap      Histogram
	qlen     Histogram
	handoff  Histogram
}

type pageAgg struct {
	faults      uint64
	writeFaults uint64
	fetches     uint64
	twins       uint64
	invals      uint64
	diffsMade   uint64
	diffBytes   uint64
	diffsUsed   uint64
	usedBytes   uint64
	pushes      uint64
	pushBytes   uint64
}

// NewMetrics builds an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{
		locks:     map[int]*lockAgg{},
		pages:     map[int]*pageAgg{},
		reqAt:     map[[2]int]uint64{},
		grantAt:   map[[2]int]uint64{},
		relAt:     map[[2]int]uint64{},
		waiting:   map[int]map[int]bool{},
		lockRelAt: map[int]uint64{},
	}
}

// lock returns the aggregate of lock id. An event that names no lock
// (id < 0) is folded into a throwaway, so the summary never lists a lock
// that does not exist; page does the same for pages.
func (m *Metrics) lock(id int) *lockAgg {
	if id < 0 {
		return new(lockAgg)
	}
	l := m.locks[id]
	if l == nil {
		l = &lockAgg{}
		m.locks[id] = l
	}
	return l
}

func (m *Metrics) page(id int) *pageAgg {
	if id < 0 {
		return new(pageAgg)
	}
	p := m.pages[id]
	if p == nil {
		p = &pageAgg{}
		m.pages[id] = p
	}
	return p
}

// Trace implements Tracer.
func (m *Metrics) Trace(ev Event) { m.TraceEvent(&ev) }

// TraceEvent reads ev in place (see Emitter).
func (m *Metrics) TraceEvent(ev *Event) {
	m.events++
	switch ev.Kind {
	case KindLockRequest:
		key := [2]int{ev.Proc, ev.Lock}
		m.reqAt[key] = ev.Cycle
		if at, ok := m.relAt[key]; ok && ev.Cycle >= at {
			m.lock(ev.Lock).gap.Observe(ev.Cycle - at)
			delete(m.relAt, key)
		}
	case KindLockEnqueue:
		// Proc is the manager; Arg is the enqueued requester. Observe the
		// queue length the requester found (before its own insertion).
		w := m.waiting[ev.Lock]
		if w == nil {
			w = map[int]bool{}
			m.waiting[ev.Lock] = w
		}
		m.lock(ev.Lock).qlen.Observe(uint64(len(w)))
		w[int(ev.Arg)] = true
	case KindLockBypass:
		m.lock(ev.Lock).bypasses++
	case KindLeaseRenew:
		m.lock(ev.Lock).renewals++
	case KindLockGrant:
		l := m.lock(ev.Lock)
		l.acquires++
		key := [2]int{ev.Proc, ev.Lock}
		if at, ok := m.reqAt[key]; ok && ev.Cycle >= at {
			l.wait.Observe(ev.Cycle - at)
			if rel, had := m.lockRelAt[ev.Lock]; had && at <= rel && ev.Cycle >= rel {
				l.handoff.Observe(ev.Cycle - rel)
			}
			delete(m.reqAt, key)
		}
		delete(m.lockRelAt, ev.Lock)
		m.grantAt[key] = ev.Cycle
		delete(m.waiting[ev.Lock], ev.Proc)
	case KindLockRelease:
		key := [2]int{ev.Proc, ev.Lock}
		if at, ok := m.grantAt[key]; ok && ev.Cycle >= at {
			m.lock(ev.Lock).hold.Observe(ev.Cycle - at)
			delete(m.grantAt, key)
		}
		m.relAt[key] = ev.Cycle
		m.lockRelAt[ev.Lock] = ev.Cycle
	case KindLAPNotice:
		m.lock(ev.Lock).notices++
	case KindLAPHit:
		m.lock(ev.Lock).hits++
	case KindLAPMiss:
		m.lock(ev.Lock).misses++
	case KindLAPPush:
		l := m.lock(ev.Lock)
		l.pushes++
		l.pushByte += uint64(ev.Arg2)
	case KindUpdatePush:
		// Munin pushes a page's diff to its home: the event names the
		// page, not the lock being released.
		p := m.page(ev.Page)
		p.pushes++
		p.pushBytes += uint64(ev.Arg2)
	case KindPageFault:
		p := m.page(ev.Page)
		p.faults++
		if ev.Arg == 1 {
			p.writeFaults++
		}
	case KindPageFetch:
		m.page(ev.Page).fetches++
	case KindTwinCreate:
		m.page(ev.Page).twins++
	case KindInvalidate:
		m.page(ev.Page).invals++
	case KindDiffCreate:
		p := m.page(ev.Page)
		p.diffsMade++
		p.diffBytes += uint64(ev.Arg)
	case KindDiffApply:
		p := m.page(ev.Page)
		p.diffsUsed++
		p.usedBytes += uint64(ev.Arg)
	case KindMsgSend:
		m.msgs++
		m.msgBytes += uint64(ev.Arg2)
	case KindNetTransfer:
		m.netWaitCy += uint64(ev.Arg2)
	}
}

// Histogram is a power-of-two bucketed distribution of cycle counts:
// Buckets[i] counts observations v with 2^i <= v+1 < 2^(i+1) (bucket 0
// holds zeros and ones).
type Histogram struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets"`
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	b := bits.Len64(v) // 0 -> bucket 0, 1 -> 1, 2..3 -> 2, ...
	if b > 0 {
		b--
	}
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
}

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// LockSummary is the exported per-lock metrics record.
type LockSummary struct {
	Lock      int       `json:"lock"`
	Acquires  uint64    `json:"acquires"`
	Notices   uint64    `json:"notices"`
	PredHits  uint64    `json:"predHits"`
	PredMiss  uint64    `json:"predMisses"`
	Accuracy  float64   `json:"accuracyPct"` // -1 when never evaluated
	Pushes    uint64    `json:"pushes"`
	PushBytes uint64    `json:"pushBytes"`
	Bypasses  uint64    `json:"bypasses"`
	Renewals  uint64    `json:"leaseRenewals"`
	HoldCy    Histogram `json:"holdCycles"`
	WaitCy    Histogram `json:"waitCycles"`
	GapCy     Histogram `json:"gapCycles"`
	QueueLen  Histogram `json:"queueLenAtEnqueue"`
	HandoffCy Histogram `json:"handoffCycles"`
}

// PageSummary is the exported per-page metrics record.
type PageSummary struct {
	Page        int    `json:"page"`
	Faults      uint64 `json:"faults"`
	WriteFaults uint64 `json:"writeFaults"`
	Fetches     uint64 `json:"fetches"`
	Twins       uint64 `json:"twins"`
	Invals      uint64 `json:"invalidations"`
	DiffsMade   uint64 `json:"diffsCreated"`
	DiffBytes   uint64 `json:"diffBytesCreated"`
	DiffsUsed   uint64 `json:"diffsApplied"`
	UsedBytes   uint64 `json:"diffBytesApplied"`
	// Pushes and PushBytes count eager update pushes of this page's diffs
	// (update-push; per-lock LAP pushes are in LockSummary).
	Pushes    uint64 `json:"updatePushes"`
	PushBytes uint64 `json:"updatePushBytes"`
}

// Summary is the full exported metrics document.
type Summary struct {
	Events      uint64        `json:"events"`
	Messages    uint64        `json:"messages"`
	MsgBytes    uint64        `json:"messageBytes"`
	NetWaitCy   uint64        `json:"netLinkWaitCycles"`
	Locks       []LockSummary `json:"locks"`
	Pages       []PageSummary `json:"pages"`
	ActivePages int           `json:"activePages"`
}

// Summary computes the exportable document, locks and pages sorted by id.
func (m *Metrics) Summary() Summary {
	s := Summary{
		Events:    m.events,
		Messages:  m.msgs,
		MsgBytes:  m.msgBytes,
		NetWaitCy: m.netWaitCy,
	}
	lockIDs := make([]int, 0, len(m.locks))
	for id := range m.locks {
		lockIDs = append(lockIDs, id)
	}
	sort.Ints(lockIDs)
	for _, id := range lockIDs {
		l := m.locks[id]
		acc := -1.0
		if n := l.hits + l.misses; n > 0 {
			acc = 100 * float64(l.hits) / float64(n)
		}
		s.Locks = append(s.Locks, LockSummary{
			Lock: id, Acquires: l.acquires, Notices: l.notices,
			PredHits: l.hits, PredMiss: l.misses, Accuracy: acc,
			Pushes: l.pushes, PushBytes: l.pushByte,
			Bypasses: l.bypasses, Renewals: l.renewals,
			HoldCy: l.hold, WaitCy: l.wait,
			GapCy: l.gap, QueueLen: l.qlen,
			HandoffCy: l.handoff,
		})
	}
	pageIDs := make([]int, 0, len(m.pages))
	for id := range m.pages {
		pageIDs = append(pageIDs, id)
	}
	sort.Ints(pageIDs)
	for _, id := range pageIDs {
		p := m.pages[id]
		s.Pages = append(s.Pages, PageSummary{
			Page: id, Faults: p.faults, WriteFaults: p.writeFaults,
			Fetches: p.fetches, Twins: p.twins, Invals: p.invals,
			DiffsMade: p.diffsMade, DiffBytes: p.diffBytes,
			DiffsUsed: p.diffsUsed, UsedBytes: p.usedBytes,
			Pushes: p.pushes, PushBytes: p.pushBytes,
		})
	}
	s.ActivePages = len(s.Pages)
	return s
}

// WriteJSON marshals the summary, indented, to w.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Summary())
}

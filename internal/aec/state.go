package aec

import (
	"cmp"
	"slices"

	"aecdsm/internal/bitset"
	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// invalReason records why a page copy was invalidated, which determines the
// fault recovery path (§3.4 of the paper).
type invalReason uint8

const (
	invalNone invalReason = iota
	// invalWN: invalidated by a write notice at a barrier; recover by
	// fetching the writers' outside diffs.
	invalWN
	// invalLock: invalidated at a lock grant because the acquirer was not
	// in the last releaser's update set; recover by fetching the merged
	// diffs from the last owner.
	invalLock
)

// recvBuf holds the latest merged-diff push received for a lock (the
// update-set eager transfer). Stale pushes are detected via the acquire
// counter and discarded.
type recvBuf struct {
	from    int
	count   int
	step    int
	diffs   []*mem.Diff // the push's merged diffs, as sent (a chain)
	applied bitset.Set  // pages of THIS push already applied locally
}

// grantMsg is the lock manager's reply to an acquire request. Its lists
// are the manager's own (the release's cumulative pages, the predictor's
// published update set), shared and never written.
type grantMsg struct {
	lock         int
	lastReleaser int   // -1 if first acquisition since reset
	lastCount    int   // acquire counter of the last releaser's tenure
	myCount      int   // acquire counter of this grant
	inUS         bool  // acquirer was in the last releaser's update set
	invPages     []int // cumulative CS page set to invalidate when !inUS
	us           []int // update set computed for the acquirer's release
}

// noAccess is the lastAccess of a page not accessed since the run began or
// the processor last crashed: older than any step's predecessor.
const noAccess = -2

// aecPage is one processor's protocol state for one page.
type aecPage struct {
	home int // the page's home, as the last barrier assigned it
	// twinStep is the step the live outside twin belongs to while the page
	// is in dirtyOutside, and 0 once that twin's diff is archived.
	twinStep  int
	invalLock int // the lock whose grant invalidated the page (reason invalLock)
	// lastAccess is the last step that accessed the page (the §3.4
	// home/fault decision), noAccess if none.
	lastAccess int
	// outsideDiff is the current interval's speculative eager outside
	// diff (§3.2), nil if none.
	outsideDiff *mem.Diff
	archive     []stepDiff        // finalized outside diffs, ascending by step
	pendingWN   []mem.WriteNotice // write notices not yet applied
	reason      invalReason
	reqSeen     bool // some remote processor requested the page
	// sharedHint: the barrier manager reported the page held by other
	// processors, so it is worth diffing eagerly at the next barrier.
	sharedHint bool
}

// A chain is a set of merged diffs, one per page, in ascending page
// order. Chains are shared by reference — a releaser's myMerged is the
// payload of its push, every update-set member's push buffer and then the
// next owner's inherited — so none is ever written in place: a diff is
// added to a copy (withDiff).

// chainIndex returns where page's diff is, or would be inserted, in
// chain.
func chainIndex(chain []*mem.Diff, page int) (int, bool) {
	return slices.BinarySearchFunc(chain, page, byPage)
}

func byPage(d *mem.Diff, page int) int { return cmp.Compare(d.Page, page) }

// chainDiff returns the chain's diff of page, nil if none.
func chainDiff(chain []*mem.Diff, page int) *mem.Diff {
	if i, ok := chainIndex(chain, page); ok {
		return chain[i]
	}
	return nil
}

// withDiff returns a copy of chain with d, whose page chain lacks,
// inserted; chain and its backing array are left as they were.
func withDiff(chain []*mem.Diff, d *mem.Diff) []*mem.Diff {
	i, _ := chainIndex(chain, d.Page)
	return slices.Insert(slices.Clip(chain), i, d)
}

// chainPages returns the pages of chain, ascending.
func chainPages(chain []*mem.Diff) []int {
	pages := make([]int, len(chain))
	for i, d := range chain {
		pages[i] = d.Page
	}
	return pages
}

// archived returns the page's outside diff of step, nil if none.
func (p *aecPage) archived(step int) *mem.Diff {
	if i, ok := slices.BinarySearchFunc(p.archive, step, byStep); ok {
		return p.archive[i].d
	}
	return nil
}

func byStep(e stepDiff, step int) int { return cmp.Compare(e.step, step) }

// lockChain is one processor's state for one lock: what its latest grant
// said, the merged-diff chains of §3.2 and the latest push received.
type lockChain struct {
	lastOwner int   // the last releaser my latest grant named; -1 if none
	myCount   int   // acquire counter of my latest grant
	pages     []int // the chain's cumulative page set, from the grant
	us        []int // update set given to me at grant
	// inherited holds the merged diffs inherited from the last owner
	// during my tenure, myMerged those of my last release, both chains:
	// an owner that reacquires inherits its own myMerged, and a fresh
	// push's diffs become the acquirer's inherited.
	inherited, myMerged []*mem.Diff
	recv                *recvBuf // latest update-set push received (LAP)
}

// has reports whether the page belongs to the chain's cumulative modified
// set (so critical-section diffs exist for it).
func (lc *lockChain) has(page int) bool {
	return chainDiff(lc.inherited, page) != nil || slices.Contains(lc.pages, page)
}

// procState is the per-processor AEC protocol state.
type procState struct {
	id   int
	step int

	pages []aecPage // by page number

	// The page sets the protocol walks, in ascending page order: pages
	// with a live twin holding outside modifications, pages modified
	// inside the current critical section, and pages that became valid
	// here since the last barrier (reported to the barrier manager for
	// copyset maintenance).
	dirtyOutside, dirtyInside, newValid bitset.Set
	// writtenOutside holds the pages written outside critical sections in
	// the current step whose outside diff was archived before the barrier
	// (archiveEarly). It is empty, and unallocated, in a run that never
	// does that.
	writtenOutside bitset.Set
	snap           []int // snapshot's scratch

	// faultPage is the page whose access fault is being serviced, -1
	// outside the fault handler.
	faultPage int

	// Critical-section state.
	inCS    int
	curLock int

	// locks holds, by lock id, a record per lock this processor acquired
	// or was pushed to, created at first use (lock); nil for the others.
	locks []*lockChain

	// The write-notice fetch of the fault in progress: the request in
	// flight (sent by pointer) and what the writers served.
	wnReq wnDiffReq
	wnGot []stepDiff

	// Landing zones for in-flight replies.
	grant    *grantMsg
	barInstr *barInstr

	// Barrier exchange bookkeeping.
	barDiffsGot, barWNsGot int
	barComplete            bool

	// The barrier arrival's scratch: the message and its lists, the
	// pages of its owned locks in one flat buffer, and the one-element
	// batch that carries it. combArr buffers the arrivals of this node's
	// combining-tree subtree until the subtree is complete and one batched
	// message (comb) goes upstream; unused in the flat barrier. The
	// manager reads what they hold before anyone departs the barrier, so
	// the next episode reuses them (DESIGN.md, "A barrier episode's
	// scratch").
	arrive     arriveMsg
	ownedPages []int
	batch      arriveBatch
	combArr    []*arriveMsg
	comb       arriveBatch
}

func newProcState(id, pages, locks int, space *mem.Space) *procState {
	st := &procState{
		id:             id,
		pages:          make([]aecPage, pages),
		dirtyOutside:   bitset.New(pages),
		dirtyInside:    bitset.New(pages),
		newValid:       bitset.New(pages),
		writtenOutside: bitset.New(pages),
		locks:          make([]*lockChain, locks),
		curLock:        -1,
		faultPage:      -1,
	}
	for pg := range st.pages {
		st.pages[pg] = aecPage{home: space.InitHome(pg), lastAccess: noAccess}
	}
	return st
}

// lock returns the processor's record for a lock, creating it at first
// use. A record a push creates before the first acquire names no owner.
func (st *procState) lock(id int) *lockChain {
	lc := st.locks[id]
	if lc == nil {
		lc = &lockChain{lastOwner: -1}
		st.locks[id] = lc
	}
	return lc
}

// snapshot returns the pages of set in ascending order, in a scratch slice
// that the next call overwrites. A loop whose body can yield walks a
// snapshot, not the live set: handlers that run during a charge change
// the sets (lazyOutsideDiff clears a dirtyOutside bit).
func (st *procState) snapshot(set bitset.Set) []int {
	st.snap = set.AppendBits(st.snap[:0])
	return st.snap
}

// ownedLock is one entry in a barrier arrival message: a lock whose merged
// diffs this processor holds as last releaser.
type ownedLock struct {
	lock  int
	count int   // acquire counter of my last release (latest wins)
	pages []int // pages in my merged diff set
}

// arriveMsg is the barrier arrival message.
type arriveMsg struct {
	proc     int
	owned    []ownedLock
	outside  []int // pages modified outside CS this step
	newValid []int // pages that became valid here since the last barrier
}

// elems counts the list elements of an arrival, the unit of both its
// wire size and its list-processing cost.
func (a *arriveMsg) elems() int {
	n := len(a.outside) + len(a.newValid)
	for _, o := range a.owned {
		n += 1 + len(o.pages)
	}
	return n
}

// arriveBatch is the kBarArrive payload: the arrivals of one whole
// combining-tree subtree. A leaf ships exactly one element, which is the
// seed's flat arrival message byte for byte.
type arriveBatch struct {
	arr []*arriveMsg
}

// instrBatch carries the per-processor barrier instructions for the
// receiving node's contiguous subtree down the combining tree; ins[0] is
// the receiver's own.
type instrBatch struct {
	ins []barInstr
}

// sendDiffInstr instructs the last owner of a lock to send a page's merged
// diff to the listed processors.
type sendDiffInstr struct {
	page    int
	lock    int
	targets []int
}

// sendWNInstr instructs an outside writer to send write notices.
type sendWNInstr struct {
	page    int
	targets []int
}

// homeAssign reassigns a page's home processor.
type homeAssign struct {
	page, home int
}

// barInstr is the barrier manager's per-processor instruction message.
type barInstr struct {
	diffSends []sendDiffInstr
	wnSends   []sendWNInstr
	homes     []homeAssign
	expDiffs  int
	expWNs    int
	// sharedPages lists this processor's outside pages that other
	// processors hold copies of — the paper's "accessed by other
	// processors in the previous step" condition for eager diffing.
	sharedPages []int
}

// What reused barrier scratch is filled with under mem.Poisoned.
var (
	poisonOwned    = ownedLock{lock: proto.ScratchPoison, count: proto.ScratchPoison}
	poisonDiffSend = sendDiffInstr{page: proto.ScratchPoison, lock: proto.ScratchPoison}
	poisonWNSend   = sendWNInstr{page: proto.ScratchPoison}
	poisonHome     = homeAssign{page: proto.ScratchPoison, home: proto.ScratchPoison}
)

// barrierState is the barrier manager's state (resident on processor 0).
type barrierState struct {
	seq      int
	arrivals []*arriveMsg
	copyset  []bitset.Set // per page set of processors with valid copies

	// One episode's instructions, by processor, sent by pointer into
	// instrs; the targets of every send, in one flat buffer; the home
	// assignments every processor shares; and the batch that carries a
	// subtree's instructions to its representative, by node. Every
	// processor has read its instructions before the next episode
	// computes them, so they are rebuilt in place.
	instrs  []barInstr
	targets []int
	homes   []homeAssign
	batches []instrBatch

	// computeBarrierInstructions' scratch, clear between barriers: the
	// last owner of each lock (the arrival with the highest acquire
	// counter), the pages touched this step and those written outside
	// critical sections, and each page's critical-section owner.
	owner            []ownedBy
	touched, written bitset.Set
	csOwner          []int
}

// ownedBy is the arrival that names a lock's latest release; pages is nil
// for a lock no arrival owns.
type ownedBy struct {
	proc, count int
	pages       []int
}

// wire payload types.
type acqReq struct {
	lock int
}

type relMsg struct {
	lock  int
	count int
	step  int // barrier step at release; pre-barrier chain info is stale
	pages []int
}

type pushMsg struct {
	lock  int
	from  int
	count int
	step  int // barrier step; cross-step pushes are stale
	diffs []*mem.Diff
}

type diffReq struct { // fetch merged CS diffs from last owner
	lock  int
	pages []int
}

type wnDiffReq struct { // fetch outside diffs named by write notices
	page  int
	steps []int
}

type stepDiff struct { // one fetched outside diff and the step that orders it
	step int
	d    *mem.Diff
}

type barDiffMsg struct {
	page int
	lock int
	diff *mem.Diff
}

type barWNMsg struct {
	wn mem.WriteNotice
}

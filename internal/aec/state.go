package aec

import (
	"aecdsm/internal/bitset"
	"aecdsm/internal/mem"
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
	diffs   map[int]*mem.Diff // page -> merged diff
	applied map[int]bool      // pages of THIS push already applied locally
}

// grantMsg is the lock manager's reply to an acquire request.
type grantMsg struct {
	lock         int
	lastReleaser int   // -1 if first acquisition since reset
	lastCount    int   // acquire counter of the last releaser's tenure
	myCount      int   // acquire counter of this grant
	inUS         bool  // acquirer was in the last releaser's update set
	invPages     []int // cumulative CS page set to invalidate when !inUS
	us           []int // update set computed for the acquirer's release
}

// procState is the per-processor AEC protocol state.
type procState struct {
	id   int
	step int

	// Outside-of-critical-section modification tracking.
	dirtyOutside map[int]bool              // page -> has live twin with outside mods
	twinStep     map[int]int               // page -> step its live twin belongs to
	outsideDiff  map[int]*mem.Diff         // speculative eager outside diffs (current interval)
	diffStore    map[int]map[int]*mem.Diff // page -> step -> archived outside diff
	reqSeen      map[int]bool              // pages some remote processor requested

	// faultPage is the page whose access fault is being serviced, -1
	// outside the fault handler.
	faultPage int

	// Critical-section state.
	inCS        int
	curLock     int
	dirtyInside map[int]bool // pages modified inside the current CS

	// Per-lock diff chains.
	inherited     map[int]map[int]*mem.Diff // lock -> page -> inherited merged diffs
	myMerged      map[int]map[int]*mem.Diff // lock -> page -> my last released merged diffs
	lockLastOwner map[int]int
	lockPages     map[int][]int // lock -> cumulative page set (from grant)
	lockUS        map[int][]int // lock -> update set given to me at grant
	lockMyCount   map[int]int   // lock -> acquire counter of my grant

	// Update pushes received (LAP).
	recv map[int]*recvBuf

	// Write notices pending per page, and why pages were invalidated.
	pendingWN map[int][]mem.WriteNotice
	// The write-notice fetch of the fault in progress: the request in
	// flight (sent by pointer) and what the writers served.
	wnReq wnDiffReq
	wnGot []stepDiff

	reason      map[int]invalReason
	invalLockID map[int]int // page -> lock whose grant invalidated it

	// sharedHint marks pages the barrier manager reported as held by
	// other processors (worth diffing eagerly at the next barrier).
	sharedHint map[int]bool

	// Step access sets for the home/fault decision.
	accessedPrev map[int]bool
	accessedCur  map[int]bool
	// Pages that became valid here since the last barrier (reported to
	// the barrier manager for copyset maintenance).
	newValid map[int]bool

	// Per-page home assignments (updated by barrier instructions).
	homes []int

	// Landing zones for in-flight replies.
	grant    *grantMsg
	barInstr *barInstr

	// Barrier exchange bookkeeping.
	barDiffsGot, barWNsGot int
	barComplete            bool

	// combArr buffers the arrivals of this node's combining-tree subtree
	// until the subtree is complete and one batched message goes
	// upstream. Unused in the flat barrier.
	combArr []*arriveMsg
}

func newProcState(id, pages int, space *mem.Space) *procState {
	st := &procState{
		id:            id,
		dirtyOutside:  make(map[int]bool),
		twinStep:      make(map[int]int),
		outsideDiff:   make(map[int]*mem.Diff),
		diffStore:     make(map[int]map[int]*mem.Diff),
		reqSeen:       make(map[int]bool),
		dirtyInside:   make(map[int]bool),
		inherited:     make(map[int]map[int]*mem.Diff),
		myMerged:      make(map[int]map[int]*mem.Diff),
		lockLastOwner: make(map[int]int),
		lockPages:     make(map[int][]int),
		lockUS:        make(map[int][]int),
		lockMyCount:   make(map[int]int),
		recv:          make(map[int]*recvBuf),
		pendingWN:     make(map[int][]mem.WriteNotice),
		reason:        make(map[int]invalReason),
		invalLockID:   make(map[int]int),
		sharedHint:    make(map[int]bool),
		accessedPrev:  make(map[int]bool),
		accessedCur:   make(map[int]bool),
		newValid:      make(map[int]bool),
		homes:         make([]int, pages),
		curLock:       -1,
		faultPage:     -1,
	}
	for pg := range st.homes {
		st.homes[pg] = space.InitHome(pg)
	}
	return st
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
	ins []*barInstr
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

// barrierState is the barrier manager's state (resident on processor 0).
type barrierState struct {
	seq      int
	arrivals []*arriveMsg
	copyset  []bitset.Set // per page set of processors with valid copies
	homes    []int
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

// Package trace is the protocol-event tracing and metrics-export subsystem
// of the reproduction: a typed, low-overhead event stream emitted by the
// simulator (internal/sim), the protocols (internal/aec, internal/tm,
// internal/munin), the LAP predictor (internal/lap), the shared-memory
// substrate (internal/mem) and the interconnect (internal/network).
//
// The package has two sides. An emitting layer holds an Emitter, a value
// type whose zero value is tracing off, and each emission site is one call
// of one of its methods: with tracing disabled the whole subsystem costs
// one predictable branch per site and zero allocations, and — crucially —
// tracing never charges simulated cycles, so enabling it cannot perturb the
// simulation. Whoever owns a run wraps a sink — any Tracer — with To and
// hands the Emitter down. Two runs with identical configurations produce
// identical event streams (the simulator is deterministic and emission
// order follows execution order).
//
// Sinks provided:
//
//   - Ring: a fixed-capacity in-memory ring buffer (tests, interactive
//     debugging);
//   - JSONL: one JSON object per line, byte-deterministic (diffable);
//   - Chrome: the Chrome trace_event format, loadable in Perfetto /
//     about://tracing, rendering each simulated processor as a track;
//   - Metrics: an aggregating sink producing a per-run JSON summary
//     (lock hold/wait histograms, LAP accuracy per lock, diff bytes per
//     page).
//
// Multi combines several sinks. See docs/OBSERVABILITY.md for the event
// taxonomy and worked examples.
package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind labels a protocol event. The taxonomy covers the paper's cost
// attribution: lock protocol, LAP prediction, page faults and fetches,
// twin/diff lifecycle, write notices, barriers, and messaging.
type Kind uint8

// Event kinds.
const (
	// KindRunStart opens a run; Note holds "app/protocol".
	KindRunStart Kind = iota
	// KindRunEnd closes a run; Cycle is the parallel execution time.
	KindRunEnd
	// KindLockRequest: a processor sends a lock ownership request.
	// Arg = manager processor.
	KindLockRequest
	// KindLockEnqueue: the manager found the lock held and appended the
	// requester to the waiting queue. Proc = manager, Arg = requester.
	KindLockEnqueue
	// KindLockGrant: the manager's grant lands at the acquirer.
	// Arg = last releaser (-1 on first acquisition), Arg2 = acquire count.
	KindLockGrant
	// KindLockRelease: the holder starts releasing the lock.
	// Arg = acquire count of its tenure.
	KindLockRelease
	// KindLAPNotice: an acquire notice reaches the lock manager
	// (virtual-queue insertion). Proc = manager, Arg = notifying processor.
	KindLAPNotice
	// KindLAPPredict: the manager computes an update set for a new holder.
	// Proc = manager, Arg = holder, Note = the update set in the form
	// fmt.Sprint gives an []int: the ids in brackets, one space apart, as
	// in "[3 7]" or "[]" (AppendIntSet writes it, ParseIntSet reads it).
	KindLAPPredict
	// KindLAPHit: the recorded prediction named the actual next acquirer.
	// Proc = manager, Arg = actual acquirer, Arg2 = previous holder.
	KindLAPHit
	// KindLAPMiss: the prediction missed the actual next acquirer.
	// Proc = manager, Arg = actual acquirer, Arg2 = previous holder.
	KindLAPMiss
	// KindLAPPush: a releaser pushes merged diffs to an update-set member.
	// Arg = target processor, Arg2 = encoded bytes.
	KindLAPPush
	// KindUpdatePush: an eager-update protocol (Munin) pushes a diff to a
	// sharer. Arg = target (home) processor, Arg2 = encoded bytes.
	KindUpdatePush
	// KindPageFault: the software MMU trapped an access.
	// Arg = 1 for a write fault, 0 for a read fault.
	KindPageFault
	// KindPageFetch: a base page copy arrived from its home.
	// Arg = home processor, Arg2 = bytes moved.
	KindPageFetch
	// KindTwinCreate: a pristine twin of a page was made before writing.
	KindTwinCreate
	// KindDiffCreate: a diff was encoded from a page/twin pair.
	// Arg = encoded bytes. Arg2 is a bitmask: bit 0 set if the work was
	// hidden behind synchronization, bit 1 set if the page's twin was
	// saved rather than consumed (AEC's speculative outside diffs, §3.2 —
	// the twin survives so the diff can be discarded at release).
	KindDiffCreate
	// KindDiffApply: a diff was patched into a local frame.
	// Arg = data bytes, Arg2 = 1 if hidden behind synchronization.
	KindDiffApply
	// KindDiffMerge: a new diff was merged into an inherited chain.
	// Arg = merged encoded bytes.
	KindDiffMerge
	// KindWriteNotice: a write notice was sent. Arg = target processor.
	KindWriteNotice
	// KindInvalidate: a local page copy was invalidated.
	KindInvalidate
	// KindBarrierArrive: a processor arrived at the global barrier.
	// Arg = barrier step being completed.
	KindBarrierArrive
	// KindBarrierDepart: a processor departed into a new step.
	// Arg = step just completed.
	KindBarrierDepart
	// KindMsgSend: a protocol message left a node. Arg = destination,
	// Arg2 = bytes on the wire (payload + header).
	KindMsgSend
	// KindMsgDeliver: a message was serviced at its destination.
	// Arg = source, Arg2 = service cycles spent in the handler.
	KindMsgDeliver
	// KindNetTransfer: a message crossed the mesh. Arg = destination,
	// Arg2 = cycles spent waiting for contended links.
	KindNetTransfer
	// KindMsgDrop: the fault injector dropped a transmission.
	// Arg = destination, Arg2 = transport sequence number.
	KindMsgDrop
	// KindMsgDup: the receiver suppressed a duplicate delivery.
	// Arg = source, Arg2 = transport sequence number.
	KindMsgDup
	// KindMsgRetry: the reliable transport retransmitted an unacked
	// message. Arg = destination, Arg2 = attempt number (2 = first retry).
	KindMsgRetry
	// KindMsgAck: the receiver acknowledged a reliable message.
	// Arg = source (the node being acked), Arg2 = sequence number.
	KindMsgAck
	// KindFaultStall: the injector stalled a node before message service.
	// Arg = stall cycles.
	KindFaultStall
	// KindLAPFallback: an acquirer timed out waiting for a (lost) eager
	// push and fell back to explicit fetches. Arg = expected pusher.
	KindLAPFallback
	// KindLockBypass: a reordering lock policy (affinity, lease) granted
	// the lock past earlier-arrived waiters. Proc = manager, Arg = the
	// grantee, Arg2 = number of waiters bypassed (docs/LOCKING.md).
	KindLockBypass
	// KindLeaseRenew: the lease policy re-granted the lock to the current
	// leaseholder ahead of other waiters. Proc = manager, Arg = the
	// leaseholder.
	KindLeaseRenew
	// KindNodeCrash: the fault schedule crashed a node; its volatile
	// protocol state is gone. Proc = the crashed node, Arg = down cycles.
	KindNodeCrash
	// KindNodeRestart: a crashed node came back, empty, and the failover
	// sweep rebuilt its manager state from the backups' replication logs.
	// Proc = the restarted node, Arg = recovery cycles charged.
	KindNodeRestart
	// KindReplicaLog: a lock manager shipped one replication log record to
	// its backup before letting the logged transition take effect.
	// Proc = manager, Arg = backup node, Arg2 = record bytes.
	KindReplicaLog
	// KindOrphanInval: a page copy orphaned by a crash (a clean cached
	// frame on the crashed node) was invalidated during failover.
	// Proc = the crashed node, Page = the frame's page.
	KindOrphanInval

	numKinds
)

// AppendIntSet appends the lap-predict note of set to b: the bytes
// fmt.Sprint(set) would produce, without boxing the slice.
func AppendIntSet(b []byte, set []int) []byte {
	b = append(b, '[')
	for i, v := range set {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// ParseIntSet appends the ids of a lap-predict note to dst. It accepts
// exactly what AppendIntSet writes; anything else — a missing bracket, a
// stray space, a sign or leading zero AppendIntSet never writes, a number
// out of range — is an error, and dst comes back unchanged, so a
// corrupted note never reads as a smaller set.
func ParseIntSet(dst []int, note string) ([]int, error) {
	body, ok := strings.CutPrefix(note, "[")
	if ok {
		body, ok = strings.CutSuffix(body, "]")
	}
	if !ok {
		return dst, fmt.Errorf("trace: int-set note %q is not bracketed", note)
	}
	n := len(dst)
	for body != "" {
		tok, rest, more := strings.Cut(body, " ")
		v, err := strconv.Atoi(tok)
		digits := strings.TrimPrefix(tok, "-")
		if err != nil || digits[0] == '+' || digits[0] == '0' && tok != "0" || more && rest == "" {
			return dst[:n], fmt.Errorf("trace: int-set note %q has a malformed element %q", note, tok)
		}
		dst = append(dst, v)
		body = rest
	}
	return dst, nil
}

var kindNames = [numKinds]string{
	KindRunStart:      "run-start",
	KindRunEnd:        "run-end",
	KindLockRequest:   "lock-request",
	KindLockEnqueue:   "lock-enqueue",
	KindLockGrant:     "lock-grant",
	KindLockRelease:   "lock-release",
	KindLAPNotice:     "lap-notice",
	KindLAPPredict:    "lap-predict",
	KindLAPHit:        "lap-hit",
	KindLAPMiss:       "lap-miss",
	KindLAPPush:       "lap-push",
	KindUpdatePush:    "update-push",
	KindPageFault:     "page-fault",
	KindPageFetch:     "page-fetch",
	KindTwinCreate:    "twin-create",
	KindDiffCreate:    "diff-create",
	KindDiffApply:     "diff-apply",
	KindDiffMerge:     "diff-merge",
	KindWriteNotice:   "write-notice",
	KindInvalidate:    "invalidate",
	KindBarrierArrive: "barrier-arrive",
	KindBarrierDepart: "barrier-depart",
	KindMsgSend:       "msg-send",
	KindMsgDeliver:    "msg-deliver",
	KindNetTransfer:   "net-transfer",
	KindMsgDrop:       "msg-drop",
	KindMsgDup:        "msg-dup",
	KindMsgRetry:      "msg-retry",
	KindMsgAck:        "msg-ack",
	KindFaultStall:    "fault-stall",
	KindLAPFallback:   "lap-fallback",
	KindLockBypass:    "lock-bypass",
	KindLeaseRenew:    "lease-renew",
	KindNodeCrash:     "node-crash",
	KindNodeRestart:   "node-restart",
	KindReplicaLog:    "replica-log",
	KindOrphanInval:   "orphan-inval",
}

// String returns the stable wire name of the kind (used by all sinks).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Category returns the coarse event family, used as the Chrome trace
// category and for filtering.
func (k Kind) Category() string {
	switch k {
	case KindRunStart, KindRunEnd:
		return "run"
	case KindLockRequest, KindLockEnqueue, KindLockGrant, KindLockRelease,
		KindLockBypass, KindLeaseRenew:
		return "lock"
	case KindLAPNotice, KindLAPPredict, KindLAPHit, KindLAPMiss, KindLAPPush, KindUpdatePush:
		return "lap"
	case KindPageFault, KindPageFetch, KindInvalidate:
		return "fault"
	case KindTwinCreate, KindDiffCreate, KindDiffApply, KindDiffMerge, KindWriteNotice:
		return "diff"
	case KindBarrierArrive, KindBarrierDepart:
		return "barrier"
	case KindMsgSend, KindMsgDeliver, KindNetTransfer:
		return "msg"
	case KindMsgDrop, KindMsgDup, KindMsgRetry, KindMsgAck,
		KindNodeCrash, KindNodeRestart, KindReplicaLog, KindOrphanInval:
		return "recovery"
	case KindFaultStall:
		return "fault"
	case KindLAPFallback:
		return "lap"
	}
	return "other"
}

// Event is one protocol event. Cycle is the emitting node's virtual time
// in processor cycles (10ns in the paper's Table 1); Proc is the node the
// event happened on. Lock and Page are -1 when not applicable; Arg/Arg2
// carry kind-specific payloads documented on each Kind. Note is an
// optional human-readable annotation (update sets, run identification).
type Event struct {
	Cycle uint64
	Proc  int
	Kind  Kind
	Lock  int
	Page  int
	Arg   int64
	Arg2  int64
	Note  string

	// Ref is the process-local identity of the diff a diff-create /
	// diff-apply / diff-merge event refers to (mem.Diff.ID), or 0 when not
	// applicable. It lets an invariant auditor recognize the same diff
	// across events within one run. Because the counter behind it is
	// process-global, Ref is NOT reproducible across runs and is therefore
	// excluded from the serialized (JSONL/Chrome) formats, which stay
	// byte-deterministic.
	Ref uint64
}

// Ev returns an event with Lock and Page marked not-applicable; callers
// fill in the fields their kind defines.
func Ev(cycle uint64, proc int, kind Kind) Event {
	return Event{Cycle: cycle, Proc: proc, Kind: kind, Lock: -1, Page: -1}
}

// Flag is the Arg encoding of a boolean payload: 1 or 0.
func Flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Tracer consumes protocol events. Implementations must not assume events
// arrive sorted by Cycle: the stream follows execution order, and service
// handlers stamp their (earlier) service time. They may assume single-
// threaded delivery: the simulator guarantees at most one emitter runs at
// any instant. A sink that also has a TraceEvent(*Event) method (every
// sink of this package does) is handed each event by address instead,
// see Emitter; its Trace is then the one-line adapter for callers that
// hold an Event.
type Tracer interface {
	Trace(ev Event)
}

// Multi fans events out to several sinks; nil members are skipped.
func Multi(sinks ...Tracer) Tracer {
	var live []Tracer
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	m := make(multi, len(live))
	for i, s := range live {
		m[i] = reader(s)
	}
	return m
}

type multi []inPlace

// Trace implements Tracer.
func (m multi) Trace(ev Event) { m.TraceEvent(&ev) }

// TraceEvent hands every member the same event, in place.
func (m multi) TraceEvent(ev *Event) {
	for _, s := range m {
		s.TraceEvent(ev)
	}
}

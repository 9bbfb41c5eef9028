package recover

import (
	"reflect"
	"testing"

	"aecdsm/internal/lockpolicy"
)

// replayQueue adapts a bare lockpolicy.Queue to the replay surface, the
// way lap.Predictor does for the real protocols.
type replayQueue struct {
	q lockpolicy.Queue
	k lockpolicy.Kind
}

func (r *replayQueue) RecoverReset()               { r.q = lockpolicy.New(r.k, nil) }
func (r *replayQueue) RecoverEnqueue(proc int)     { r.q.Enqueue(proc) }
func (r *replayQueue) RecoverRemove(proc int) bool { return r.q.Remove(proc) }

func TestReplayRebuildsQueueAndImage(t *testing.T) {
	rep := NewReplicator(8)
	app := func(rec Record) {
		if got := rep.Append(rec); got != rec.Bytes() {
			t.Fatalf("Append returned %d, Bytes()=%d", got, rec.Bytes())
		}
	}
	// Lock 7: p2 grabs it immediately, p0 and p1 queue up, p2 releases,
	// p0 is granted from the queue and still holds it at crash time.
	app(Record{Lock: 7, Op: OpGrant, Proc: 2, Count: 1, US: []int{4, 5}})
	app(Record{Lock: 7, Op: OpEnqueue, Proc: 0})
	app(Record{Lock: 7, Op: OpEnqueue, Proc: 1})
	app(Record{Lock: 7, Op: OpRelease, Proc: 2, Count: 1, US: []int{4, 5, 9}, Pages: []int{4, 5, 9}})
	app(Record{Lock: 7, Op: OpGrant, Proc: 0, FromQueue: true, Count: 1, US: []int{4, 5, 9}})
	// Lock 3: granted and released, idle at crash time.
	app(Record{Lock: 3, Op: OpGrant, Proc: 1, Count: 1})
	app(Record{Lock: 3, Op: OpRelease, Proc: 1, Count: 1, US: []int{2}, Pages: []int{2}})

	for lock := range 8 {
		want := map[int]int{3: 2, 7: 5}[lock]
		if got := len(rep.Records(lock)); got != want {
			t.Fatalf("lock %d has %d records, want %d", lock, got, want)
		}
	}

	q := &replayQueue{k: lockpolicy.FIFO}
	img := Replay(rep.Records(7), q)
	if !img.Held || img.Holder != 0 || img.Count != 1 {
		t.Fatalf("lock 7 image = %+v, want held by 0 count 1", img)
	}
	if want := []int{4, 5, 9}; !reflect.DeepEqual(img.US, want) {
		t.Fatalf("lock 7 holder US = %v, want %v", img.US, want)
	}
	if img.LastReleaser != 2 || img.LastCount != 1 {
		t.Fatalf("lock 7 last release = %+v, want releaser 2 count 1", img)
	}
	if q.q.Len() != 1 {
		t.Fatalf("lock 7 rebuilt queue has %d waiters, want 1 (p1)", q.q.Len())
	}
	if w := q.q.Waiters(nil); len(w) != 1 || w[0] != 1 {
		t.Fatalf("lock 7 rebuilt waiters = %v, want [1]", w)
	}

	img3 := Replay(rep.Records(3), q)
	if img3.Held || img3.Holder != -1 || img3.LastReleaser != 1 {
		t.Fatalf("lock 3 image = %+v, want idle, last releaser 1", img3)
	}
	if want := []int{2}; !reflect.DeepEqual(img3.CumPages, want) {
		t.Fatalf("lock 3 CumPages = %v, want %v", img3.CumPages, want)
	}
	if q.q.Len() != 0 {
		t.Fatalf("lock 3 rebuilt queue has %d waiters, want 0", q.q.Len())
	}
}

func TestReplayEmptyLog(t *testing.T) {
	q := &replayQueue{k: lockpolicy.FIFO}
	img := Replay(nil, q)
	if img.Held || img.Holder != -1 || img.LastReleaser != -1 {
		t.Fatalf("empty-log image = %+v, want pristine", img)
	}
}

func TestRecordBytes(t *testing.T) {
	r := Record{Lock: 1, Op: OpGrant, Proc: 2, US: []int{1, 2, 3}, Pages: []int{9}}
	if got, want := r.Bytes(), 16+8*4; got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	rep := NewReplicator(2)
	if got, want := rep.Append(r)+rep.Append(Record{Lock: 1, Op: OpEnqueue, Proc: 3}), 16+8*4+16; got != want {
		t.Fatalf("Append returned %d bytes in all, want %d", got, want)
	}
	if got := len(rep.Records(1)); got != 2 {
		t.Fatalf("lock 1 logged %d records, want 2", got)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpEnqueue: "enqueue", OpGrant: "grant", OpRelease: "release", OpReset: "reset", Op(9): "op?"} {
		if got := op.String(); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

package harness

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"aecdsm/internal/lockpolicy"
)

// lockLab is the driver the lab tests share: its memo cache runs the grid
// exactly once per test binary.
var lockLab = NewExperiments(1.0)

func lockLabData(t *testing.T) LockLabStats {
	t.Helper()
	if testing.Short() {
		t.Skip("lock-policy lab grid in -short mode")
	}
	return lockLab.LockLabData()
}

// TestLockLabGolden byte-compares the rendered lock-policy lab table
// against the committed artifact results/locklab.txt. The lab workloads
// are fixed-size (scale-independent, like Table 1), so the table is
// reproducible bit-for-bit from any checkout. Regenerate deliberately:
//
//	go test ./internal/harness -run TestLockLabGolden -update-golden
func TestLockLabGolden(t *testing.T) {
	lockLabData(t)
	var buf bytes.Buffer
	lockLab.LockLab(&buf)
	checkGolden(t, filepath.Join("..", "..", "results", "locklab.txt"), buf.Bytes())
}

// TestLockLabPredictionErrorBound enforces the analytical model's
// documented accuracy contract: on every lab workload, each policy's mean
// absolute wait-prediction error stays under LockLabWaitErrBoundPct
// (docs/LOCKING.md).
func TestLockLabPredictionErrorBound(t *testing.T) {
	st := lockLabData(t)
	if len(st.Rows) == 0 {
		t.Fatal("lab produced no rows")
	}
	for _, k := range lockpolicy.Kinds() {
		err, ok := st.MeanAbsErr[k]
		if !ok {
			t.Errorf("policy %s has no measured rows", k)
			continue
		}
		if math.IsNaN(err) || err >= LockLabWaitErrBoundPct {
			t.Errorf("policy %s mean |wait err| = %.1f%%, contract is < %.0f%%",
				k, err, LockLabWaitErrBoundPct)
		}
	}
	if st.OverallErr >= LockLabWaitErrBoundPct {
		t.Errorf("overall mean |wait err| = %.1f%%, contract is < %.0f%%",
			st.OverallErr, LockLabWaitErrBoundPct)
	}
}

// TestLockLabPolicyBehaviour sanity-checks that the reordering policies
// actually reorder on the lab workloads: affinity records bypasses where
// LAP has warm targets, lease records renewals, and fifo/mcs never
// reorder anything.
func TestLockLabPolicyBehaviour(t *testing.T) {
	st := lockLabData(t)
	byPolicy := map[lockpolicy.Kind]struct{ bypass, renew uint64 }{}
	for _, r := range st.Rows {
		agg := byPolicy[r.Policy]
		agg.bypass += r.Bypasses
		agg.renew += r.Renewals
		byPolicy[r.Policy] = agg
	}
	for _, k := range []lockpolicy.Kind{lockpolicy.FIFO, lockpolicy.MCS} {
		if agg := byPolicy[k]; agg.bypass != 0 || agg.renew != 0 {
			t.Errorf("%s reordered grants (bypass=%d renew=%d); it must not", k, agg.bypass, agg.renew)
		}
	}
	if byPolicy[lockpolicy.Affinity].bypass == 0 {
		t.Error("affinity policy never bypassed on the lab workloads")
	}
	if byPolicy[lockpolicy.Lease].renew == 0 {
		t.Error("lease policy never renewed on the lab workloads")
	}
}

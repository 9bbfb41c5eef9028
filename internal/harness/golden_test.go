package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the snapshot (testdata/golden_*.txt, testdata/traced_tables_digest.txt, results/locklab.txt) of each golden test that runs")

const goldenScale = 0.1

// TestGoldenKeyStats diffs the short-mode key statistics against the
// checked-in snapshot. The snapshot pins every application's cycle count
// and synchronization/diff totals under AEC and TreadMarks at scale 0.1,
// so an accidental behaviour change in any protocol or application fails
// this test byte-for-byte. Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenKeyStats -update-golden
func TestGoldenKeyStats(t *testing.T) {
	var buf bytes.Buffer
	NewExperiments(goldenScale).KeyStats(&buf)
	checkGolden(t, filepath.Join("testdata", "golden_short.txt"), buf.Bytes())
}

// TestGoldenBreakdown diffs the execution-time breakdown of every paper
// application under every protocol kind against the checked-in snapshot:
// each bar as Figures 4-6 render it (AEC = 100), then its cycles per
// category, since a small charge billed to the wrong category moves no
// rounded percentage. A charge miscategorised or not billed at all fails
// here whichever protocol and application it is in. Regenerate
// deliberately with:
//
//	go test ./internal/harness -run TestGoldenBreakdown -update-golden
func TestGoldenBreakdown(t *testing.T) {
	e := NewExperiments(goldenScale)
	e.prefetch(e.specsFor(AllApps(), Kinds()))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "Execution-time breakdown at scale %g (AEC=100), then cycles per category:\n", e.Scale)
	for _, app := range AllApps() {
		aec := e.Run(app, ProtoAEC).Run.TotalBreakdown()
		norm := aec.Total()
		fmt.Fprintf(&buf, " %s\n", app)
		for _, kind := range Kinds() {
			b := e.Run(app, kind).Run.TotalBreakdown()
			breakdownRow(&buf, "  "+string(kind), b, norm)
			fmt.Fprintf(&buf, "  %-18s %v\n", "", b)
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_breakdown.txt"), buf.Bytes())
}

// checkGolden compares got with the snapshot at path, relative to the
// package directory, or rewrites the file under -update-golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the golden snapshot:\n%s", path, diffLines(string(want), string(got)))
	}
}

// TestTable1MatchesFullScaleResults byte-compares the rendered Table 1
// against the Table 1 section of the checked-in full-scale results, tying
// the test suite to the published artifact. Table 1 is pure system
// parameters, so it is scale-independent.
func TestTable1MatchesFullScaleResults(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("..", "..", "results", "tables_full_scale.txt"))
	if err != nil {
		t.Skipf("full-scale results not available: %v", err)
	}
	txt := string(full)
	cut := strings.Index(txt, "----")
	if cut < 0 {
		t.Fatal("results file has no section separator")
	}
	want := txt[:cut]

	var buf bytes.Buffer
	NewExperiments(goldenScale).Table1(&buf)
	if buf.String() != want {
		t.Errorf("Table 1 diverged from results/tables_full_scale.txt:\n%s",
			diffLines(want, buf.String()))
	}
}

// diffLines renders a minimal line diff for golden mismatches.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			b.WriteString("- " + lw + "\n+ " + lg + "\n")
		}
	}
	return b.String()
}

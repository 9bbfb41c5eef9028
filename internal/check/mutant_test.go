package check

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// mutants are committed mutants: each names an edit of one source file and
// the test that must fail on it. TestMutants applies every row through
// `go test -overlay`, so the tree is never touched, and a row whose old
// text stops matching exactly once fails: a refactor carries its mutants
// with it. To add a row, copy the exact old text from the file (a few
// lines if one is not unique), write the replacement, and name the
// package, the -run pattern of the test that kills it and a regexp for
// each line its failure must print.
var mutants = []struct {
	name     string
	file     string // relative to the module root
	old, new string
	pkg      string
	run      string
	want     []string // regexps, each of which must match the failing output
}{
	{
		// A diff-application bug that computes wrong values and applies one
		// diff twice: the differential runner and the invariant auditor
		// must both see it.
		name: "aec-diff-apply",
		file: "internal/aec/aec.go",
		old: `	pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffApply, d.Page, d.ID, int64(d.DataBytes()), trace.Flag(hidden))
	c.P.Advance(cost, cat)
	c.PatchDiff(d)
`,
		new: `	pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffApply, d.Page, d.ID, int64(d.DataBytes()), trace.Flag(hidden))
	pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffApply, d.Page, d.ID, int64(d.DataBytes()), trace.Flag(hidden))
	c.P.Advance(cost, cat)
	short := &mem.Diff{Page: d.Page}
	var off int
	var last []byte
	for o, data := range d.Runs() {
		if last != nil {
			short.AppendRun(off, last)
		}
		off, last = o, data
	}
	c.PatchDiff(short)
`,
		pkg:  "./internal/check",
		run:  "^TestDifferentialSeeds$",
		want: []string{`FAIL: (AEC: .* failed verification|.*checksum mismatch)`, `FAIL: AEC: invariant violated`},
	},
	{
		// An interval's clock copied to the heap outlives the run's region.
		name: "tm-interval-clock-on-heap",
		file: "internal/tm/tm.go",
		old:  "	vc := region.KeepInts(st.vc)\n",
		new:  "	vc := slices.Clone(st.vc)\n",
		pkg:  "./internal/tm",
		run:  "^TestIntervalDiffsKeptInRegion$",
		want: []string{`does not read the released region's poison`},
	},
	{
		// One trace byte moves and no simulated cycle does: the service
		// time a msg-deliver event reports is one cycle long.
		name: "trace-deliver-arg",
		file: "internal/sim/msg.go",
		old:  "trace.KindMsgDeliver, int64(m.From), int64(svc))",
		new:  "trace.KindMsgDeliver, int64(m.From), int64(svc)+1)",
		pkg:  "./internal/harness",
		run:  "^TestTracedTablesDigest$",
		want: []string{`traced_tables_digest.txt diverged from the golden snapshot`},
	},
	{
		// A deadlocked run counts as one that finished and verified.
		name: "verdict-drops-deadlock",
		file: "internal/harness/run.go",
		old:  "	case r.Deadlocked:\n		return fmt.Errorf(\"%s deadlocked\", r.what())\n",
		new:  "",
		pkg:  "./internal/harness",
		run:  "^TestResultErr$",
		want: []string{`Err\(\) = <nil>, want ".* deadlocked"`},
	},
	{
		// A transport acknowledgement one byte longer moves simulated time
		// under faults and nothing a run computes.
		name: "transport-ack-bytes",
		file: "internal/sim/reliable.go",
		old:  "const ackBytes = 16\n",
		new:  "const ackBytes = 17\n",
		pkg:  "./cmd/fuzzdsm",
		run:  "^TestCIFuzzLines$",
		want: []string{`the CI fuzzer lines moved`},
	},
}

// TestMutants runs every committed mutant: its row passes only when the
// named test fails with every wanted line. A mutant that survives, a
// build error, a timeout and an old text that does not occur exactly once
// each fail the row.
func TestMutants(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to build mutants with: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// The mutants build in a subprocess, which the test cache does not
	// see. Reading every directory here makes a new, removed or edited
	// file (a killing test among them) invalidate a cached pass.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			file := filepath.Join(root, m.file)
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("mutant %s: %v", m.name, err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("mutant %s: its old text occurs %d times in %s, want once", m.name, n, m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			overlay := filepath.Join(dir, "overlay.json")
			replace, _ := json.Marshal(map[string]map[string]string{"Replace": {file: mutated}})
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlay, replace, 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, goCmd, "test", "-count=1", "-timeout=2m", "-overlay", overlay, "-run", m.run, m.pkg)
			cmd.Dir = root
			cmd.Env = append(os.Environ(), "GOFLAGS=")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			switch {
			case err == nil:
				t.Fatalf("mutant %s survived: %s %s passes", m.name, m.pkg, m.run)
			case !errors.As(err, &exit) || ctx.Err() != nil || strings.Contains(string(out), "panic: test timed out"):
				t.Fatalf("mutant %s did not finish: %v\n%s", m.name, err, out)
			case !strings.Contains(string(out), "--- FAIL: "):
				t.Fatalf("mutant %s failed without a test failing (a build error?):\n%s", m.name, out)
			}
			for _, w := range m.want {
				if !regexp.MustCompile(w).Match(out) {
					t.Errorf("mutant %s: the failure prints no line matching %q:\n%s", m.name, w, out)
				}
			}
		})
	}
}

package lint_test

import (
	"strings"
	"testing"

	"aecdsm/internal/lint"
	"aecdsm/internal/lint/analysis"
	"aecdsm/internal/lint/analysistest"
)

// The fixture packages under testdata/src each contain violations marked
// with `// want "regex"` comments plus clean shapes that must stay silent;
// every analyzer is exercised against its fixture in isolation so a finding
// can only come from the analyzer under test.

func TestSinglethread(t *testing.T) {
	analysistest.Run(t, "testdata", "singlethread", lint.Singlethread)
}

// TestCrossengine pins the //dsmvet:crossengine exemption: the scheduler
// shape (worker pool + mutex-guarded cache over isolated runs) is silent
// in a marked file, while engine-internal primitive calls in the same
// package are still reported.
func TestCrossengine(t *testing.T) {
	analysistest.Run(t, "testdata", "crossengine", lint.Singlethread)
}

// TestCrossengineDirective checks the marker's own hygiene: a directive
// without a reason is reported (on the directive line, hence asserted here
// rather than via want comments), and the exemption still applies so the
// missing reason is the only finding.
func TestCrossengineDirective(t *testing.T) {
	pkg := analysistest.Load(t, "testdata", "crossenginebad")
	findings, err := lint.RunPackage(pkg, []*analysis.Analyzer{lint.Singlethread})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding (missing reason), got %d:\n%v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "missing its mandatory reason") ||
		!strings.Contains(findings[0].Message, "crossengine") {
		t.Errorf("unexpected finding: %v", findings[0])
	}
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", "determinism", lint.Determinism)
}

// TestLockpolicyLayer pins the half of the lockpolicy layer contract a
// run cannot see: grant decisions must not leak map iteration order.
func TestLockpolicyLayer(t *testing.T) {
	analysistest.Run(t, "testdata", "lockpolicy", lint.Determinism)
}

// TestAllowDirectives exercises the //dsmvet:allow escape hatch: a
// justified directive suppresses its finding, while findings without a
// directive survive and malformed or unused directives are reported. The
// expectations live here rather than in want comments because the
// directive findings land on the directive's own comment line.
func TestAllowDirectives(t *testing.T) {
	pkg := analysistest.Load(t, "testdata", "allowdir")
	findings, err := lint.RunPackage(pkg, []*analysis.Analyzer{lint.Singlethread})
	if err != nil {
		t.Fatal(err)
	}

	count := func(analyzer, substr string) int {
		n := 0
		for _, f := range findings {
			if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
				n++
			}
		}
		return n
	}

	// The directive-covered channel creation is suppressed, the bare one
	// survives: exactly one singlethread finding.
	if got := count("singlethread", "channel creation"); got != 1 {
		t.Errorf("want exactly 1 surviving channel-creation finding, got %d:\n%v", got, findings)
	}
	if got := count("allow", "missing its mandatory reason"); got != 1 {
		t.Errorf("want 1 missing-reason directive finding, got %d:\n%v", got, findings)
	}
	if got := count("allow", "unknown analyzer"); got != 1 {
		t.Errorf("want 1 unknown-analyzer directive finding, got %d:\n%v", got, findings)
	}
	if got := count("allow", "unused //dsmvet:allow singlethread directive"); got != 1 {
		t.Errorf("want 1 unused-directive finding, got %d:\n%v", got, findings)
	}
	if len(findings) != 4 {
		t.Errorf("want 4 findings total, got %d:\n%v", len(findings), findings)
	}
}

// TestAuditDirectives pins the `dsmvet -unused-directives` mode: the
// stale crossengine marker (file with no concurrency construct left) and
// the unused allow in stale.go are reported, while the legitimate marker
// on the goroutine pool in live.go stays silent.
func TestAuditDirectives(t *testing.T) {
	pkg := analysistest.Load(t, "testdata", "staledirective")
	findings, err := lint.AuditDirectives(pkg, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var stale, unused int
	for _, f := range findings {
		if f.Analyzer != "allow" {
			t.Errorf("audit mode must only emit directive findings, got %s", f)
		}
		if strings.Contains(f.Pos.Filename, "live.go") {
			t.Errorf("legitimate crossengine marker flagged: %s", f)
		}
		switch {
		case strings.Contains(f.Message, "stale //dsmvet:crossengine"):
			stale++
		case strings.Contains(f.Message, "unused //dsmvet:allow determinism"):
			unused++
		}
	}
	if stale != 1 {
		t.Errorf("want 1 stale crossengine finding, got %d:\n%v", stale, findings)
	}
	if unused != 1 {
		t.Errorf("want 1 unused allow finding, got %d:\n%v", unused, findings)
	}
	if len(findings) != 2 {
		t.Errorf("want 2 findings total, got %d:\n%v", len(findings), findings)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"aecdsm/internal/lint"
)

// TestRunExitCodes drives the command at its boundary: -list names the two
// analyzers and exits 0, an analyzer or flag it does not know is a usage
// error (2) before any package is loaded — a deleted analyzer's name
// included, so a stale -run is rejected, not silently ignored — a clean
// package exits 0 in
// silence, and a package with one finding exits 1 with that finding — as
// a text line, or under -json as a valid JSON array holding it.
func TestRunExitCodes(t *testing.T) {
	t.Chdir(filepath.Join("testdata", "fixture"))
	exec := func(args ...string) (code int, out, errw string) {
		var o, e bytes.Buffer
		code = run(args, &o, &e)
		return code, o.String(), e.String()
	}

	code, out, errw := exec("-list")
	if code != 0 || errw != "" {
		t.Errorf("-list: exit %d, stderr %q", code, errw)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list does not name %s:\n%s", a.Name, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 2 || len(lint.Analyzers()) != 2 {
		t.Errorf("-list printed %d lines for %d analyzers; want singlethread and determinism", got, len(lint.Analyzers()))
	}

	for _, tc := range []struct {
		name string
		args []string
		errw string
	}{
		{"unknown analyzer", []string{"-run", "determinism,nope", "./clean"}, `unknown analyzer "nope" (try -list)`},
		{"deleted analyzer", []string{"-run", "blockingcharge", "./clean"}, `unknown analyzer "blockingcharge" (try -list)`},
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
		{"no such package", []string{"./missing"}, "dsmvet:"},
	} {
		if code, out, errw := exec(tc.args...); code != 2 || out != "" || !strings.Contains(errw, tc.errw) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2, silence and %q", tc.name, code, out, errw, tc.errw)
		}
	}

	if code, out, errw := exec("./clean"); code != 0 || out != "" || errw != "" {
		t.Errorf("clean fixture: exit %d, stdout %q, stderr %q; want 0 and silence", code, out, errw)
	}
	if code, out, _ := exec("-run", "singlethread", "./onefinding"); code != 0 || out != "" {
		t.Errorf("-run without the analyzer that fires: exit %d, stdout %q", code, out)
	}

	code, out, errw = exec("./onefinding")
	if code != 1 || errw != "" || strings.Count(out, "\n") != 1 ||
		!strings.Contains(out, "onefinding.go:8:") || !strings.Contains(out, "(determinism)") {
		t.Errorf("one finding, text: exit %d, stderr %q, stdout %q", code, errw, out)
	}

	code, out, errw = exec("-json", "./onefinding")
	var got []jsonFinding
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output is not a JSON array of findings: %v\n%s", err, out)
	}
	if code != 1 || errw != "" || len(got) != 1 {
		t.Fatalf("-json: exit %d, stderr %q, %d findings; want 1 and one finding", code, errw, len(got))
	}
	f := got[0]
	if filepath.Base(f.File) != "onefinding.go" || f.Line != 8 || f.Col == 0 || f.Analyzer != "determinism" || !strings.Contains(f.Message, "time.Now") {
		t.Errorf("-json finding: %+v", f)
	}
	if code, out, _ := exec("-json", "./clean"); code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("-json on a clean package: exit %d, stdout %q; want 0 and an empty array", code, out)
	}
}

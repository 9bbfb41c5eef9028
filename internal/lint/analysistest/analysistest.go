// Package analysistest runs dsmvet analyzers over fixture packages and
// checks their findings against `// want "regex"` comments in the fixture
// sources, mirroring the conventions of
// golang.org/x/tools/go/analysis/analysistest without depending on it.
//
// Fixtures live under testdata/src/<dir>. Imports inside a fixture are
// resolved against testdata/src as well, so fixtures import stub packages
// with bare paths ("sim", "stats") instead of the real
// simulator layers — including stand-ins for the standard-library packages
// the analyzers recognize by path ("time", "sync", "math/rand", "sort").
// Nothing outside testdata is ever loaded, which keeps the fixtures
// hermetic and fast to type-check.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"aecdsm/internal/lint"
	"aecdsm/internal/lint/analysis"
	"aecdsm/internal/lint/loader"
)

// Run loads the fixture package testdata/src/<dir>, executes the analyzers
// through lint.RunPackage (so //dsmvet:allow filtering and directive
// auditing apply exactly as in cmd/dsmvet), and fails the test unless the
// findings line up one-to-one with the fixture's `// want` comments.
func Run(t *testing.T, testdata, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg := Load(t, testdata, dir)
	findings, err := lint.RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}
	checkWants(t, pkg, findings)
}

// Load parses and type-checks the fixture package testdata/src/<dir>
// without running any analyzer, for tests that assert on findings
// programmatically instead of via want comments.
func Load(t *testing.T, testdata, dir string) *loader.Package {
	t.Helper()
	im := &fixtureImporter{
		root: filepath.Join(testdata, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*loader.Package),
	}
	pkg, err := im.load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// fixtureImporter type-checks fixture packages from source, resolving
// every import path relative to its root directory.
type fixtureImporter struct {
	root string
	fset *token.FileSet
	pkgs map[string]*loader.Package
}

// Import implements types.Importer over the fixture tree.
func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	pkg, err := im.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (im *fixtureImporter) load(path string) (*loader.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %v", path, err)
	}
	var (
		files   []*ast.File
		goFiles []string
	)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(im.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		goFiles = append(goFiles, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %q: no .go files in %s", path, dir)
	}
	info := loader.NewInfo()
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(path, im.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %v", path, err)
	}
	pkg := &loader.Package{
		PkgPath: path,
		Name:    tpkg.Name(),
		Dir:     dir,
		GoFiles: goFiles,
		Fset:    im.fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    info,
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// want is one expectation parsed from a `// want "regex"` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	text    string
	matched bool
}

var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts the expectations from the fixture's comments. A
// want comment holds one or more regexes, each quoted with backquotes or
// double quotes, all anchored to the comment's own line.
func parseWants(t *testing.T, pkg *loader.Package) []*want {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := c.Text[idx+len("// want "):]
				matches := wantArgRE.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					text := m[1]
					if m[2] != "" {
						text = m[2]
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, text, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: text})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// checkWants matches findings against expectations one-to-one.
func checkWants(t *testing.T, pkg *loader.Package, findings []lint.Finding) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, f := range findings {
		found := false
		for _, w := range wants {
			if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.text)
		}
	}
}

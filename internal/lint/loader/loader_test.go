package loader

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrors drives every way a load can fail: go list cannot run, a
// pattern names no package, its output is not JSON, a file does not parse,
// a package does not type-check, and an import has no export data. A
// package go list cannot build fails the load the way a type error does.
func TestErrors(t *testing.T) {
	fset := token.NewFileSet()
	imp, err := Importer(fset, "../../..", "fmt")
	if err != nil {
		t.Fatal(err)
	}
	check := func(src string) error {
		_, err := Check(fset, imp, "p", []string{"p.go"}, map[string]string{"p.go": src})
		return err
	}
	missing := filepath.Join(t.TempDir(), "missing")
	_, missingDir := Load(missing, "./...")
	_, importerMissingDir := Importer(fset, missing, "fmt")
	_, missingPkg := Load("../../..", "./nosuchpkg")
	_, notJSON := decodeList([]byte(`{"ImportPath": "fmt"} {`))
	for _, c := range []struct {
		err  error
		want string
	}{
		{missingDir, "go list [./...]: "},
		{importerMissingDir, "go list [fmt]: "},
		{missingPkg, "loader: ./nosuchpkg: "},
		{notJSON, "go list: decoding its output: "},
		{check("package p\nfunc {"), "loader: p: p.go:2:6: expected 'IDENT'"},
		{check("package p\nvar _ int = \"s\""), "loader: type-checking p: "},
		{check("package p\nimport \"net\"\nvar _ = net.IPv4len"), `no export data for "net"`},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("error %v, want one containing %q", c.err, c.want)
		}
	}
}

// Package loader type-checks Go packages for the lint rules without
// depending on golang.org/x/tools/go/packages. It shells out to
// `go list -export -deps -json`, which works fully offline: the go command
// compiles each dependency into the build cache and reports the path of its
// export data, and the standard library gc importer consumes those files.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed, type-checked package.
type Package struct {
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList returns the `go list -e -export -deps -json` package records for
// the patterns in dir, in listing order.
func goList(dir string, patterns ...string) ([]listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	return decodeList(out)
}

// decodeList parses the JSON stream `go list -json` emits.
func decodeList(out []byte) ([]listPkg, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listPkg
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding its output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// gcImporter resolves import paths through the export data of the listed
// packages.
func gcImporter(fset *token.FileSet, pkgs []listPkg) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("loader: no export data for %q", path)
	})
}

// Importer returns an importer for the packages patterns match in dir and
// for their dependencies, read from build-cache export data.
func Importer(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return gcImporter(fset, pkgs), nil
}

// Load parses and type-checks the packages matched by patterns, resolving
// every import (standard library and module-local alike) from build-cache
// export data. Test files are not included: the rules check the shipped
// simulator sources, and `go list` GoFiles excludes *_test.go.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := gcImporter(fset, pkgs)
	var out []*Package
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		var names []string
		for _, gf := range p.GoFiles {
			names = append(names, filepath.Join(p.Dir, gf))
		}
		pkg, err := Check(fset, imp, p.ImportPath, names, nil)
		if p.Error != nil {
			err = fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Check parses the named files and type-checks them as the package path,
// resolving imports through imp. A file whose name is a key of src is
// parsed from that text; any other is read from disk.
func Check(fset *token.FileSet, imp types.Importer, path string, names []string, src map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		var text any
		if s, ok := src[name]; ok {
			text = s
		}
		f, err := parser.ParseFile(fset, name, text, 0)
		if err != nil {
			return nil, fmt.Errorf("loader: %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", path, err)
	}
	return &Package{Fset: fset, Syntax: files, Types: tpkg, Info: info}, nil
}

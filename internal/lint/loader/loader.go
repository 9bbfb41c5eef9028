// Package loader type-checks Go packages for the dsmvet analyzers without
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
	"sort"
)

// Package is one parsed, type-checked package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	GoFiles []string

	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// GoList returns the `go list -e -export -deps -json` package records for
// the patterns in dir, in listing order.
func GoList(dir string, patterns ...string) ([]listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	pkgs, err := decodeList(out)
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v", patterns, err)
	}
	return pkgs, nil
}

// decodeList parses the JSON stream `go list -json` emits.
func decodeList(out []byte) ([]listPkg, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// GCImporter builds a types.Importer that resolves import paths through the
// given export data map.
func GCImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load parses and type-checks the packages matched by patterns, resolving
// every import (standard library and module-local alike) from build-cache
// export data. Test files are not included: dsmvet checks the shipped
// simulator sources, and `go list` GoFiles excludes *_test.go.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var targets []listPkg
	for _, p := range pkgs {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := GCImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		var files []*ast.File
		var names []string
		for _, gf := range t.GoFiles {
			fn := filepath.Join(t.Dir, gf)
			f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("loader: %s: %v", t.ImportPath, err)
			}
			files = append(files, f)
			names = append(names, fn)
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("loader: type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			PkgPath: t.ImportPath,
			Name:    t.Name,
			Dir:     t.Dir,
			GoFiles: names,
			Fset:    fset,
			Syntax:  files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return out, nil
}

package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"
)

// Package is one loaded, type-checked analysis unit: a package's sources
// (plus its in-package test files), or the external _test package of a
// directory.
type Package struct {
	// PkgPath is the import path ("ulixes/internal/nalg", with a "_test"
	// suffix for external test packages).
	PkgPath string
	Name    string
	Fset    *token.FileSet
	Files   []*ast.File
	// TestFiles marks which syntax trees come from _test.go files.
	TestFiles map[*ast.File]bool
	Types     *types.Package
	Info      *types.Info
	// Errors holds parse and type errors; analyzers still run on what was
	// loaded, like go vet does.
	Errors []error
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Incomplete   bool
	Error        *struct{ Err string }
}

// Load lists the packages matching the patterns (relative to dir), compiles
// export data for their dependencies via the go tool, and type-checks every
// matched package from source — including in-package and external test
// files. It is the loading half of a go/analysis driver, implemented on the
// standard library alone.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		lp := p
		if lp.Export != "" {
			if _, ok := exports[lp.ImportPath]; !ok {
				exports[lp.ImportPath] = lp.Export
			}
			// Test variants "p [q.test]" also satisfy plain imports of p.
			if i := strings.IndexByte(lp.ImportPath, ' '); i > 0 {
				base := lp.ImportPath[:i]
				if _, ok := exports[base]; !ok {
					exports[base] = lp.Export
				}
			}
		}
		if lp.DepOnly || lp.Standard || lp.ForTest != "" ||
			strings.HasSuffix(lp.ImportPath, ".test") || lp.Dir == "" {
			continue
		}
		roots = append(roots, &lp)
	}
	if len(roots) == 0 {
		return nil, errors.New("lint: no packages matched")
	}

	fset := token.NewFileSet()
	// importerFor resolves imports to the variant compiled with the given
	// suffix, " [p.test]", where there is one, and to the plain package
	// otherwise.
	importerFor := func(variant string) types.Importer {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path+variant]
			if !ok {
				f, ok = exports[path]
			}
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	imp := importerFor("")

	var pkgs []*Package
	for _, r := range roots {
		if r.Name == "" {
			if r.Error != nil {
				return nil, fmt.Errorf("lint: %s: %s", r.ImportPath, r.Error.Err)
			}
			continue
		}
		// Unit 1: package sources + in-package test files.
		pkg := typecheckUnit(fset, imp, r.ImportPath, r.Dir,
			append(append([]string{}, r.GoFiles...), r.TestGoFiles...),
			len(r.GoFiles))
		pkgs = append(pkgs, pkg)
		// Unit 2: the external test package, if any. It imports the package
		// as compiled with its in-package test files (which may export
		// helpers to it), and so does every dependency that imports it.
		if len(r.XTestGoFiles) > 0 {
			ximp := importerFor(" [" + r.ImportPath + ".test]")
			pkgs = append(pkgs, typecheckUnit(fset, ximp, r.ImportPath+"_test", r.Dir, r.XTestGoFiles, 0))
		}
	}
	return pkgs, nil
}

// typecheckUnit parses and type-checks one unit. The first nonTest files are
// regular sources; the rest are test files.
func typecheckUnit(fset *token.FileSet, imp types.Importer, path, dir string, files []string, nonTest int) *Package {
	pkg := &Package{
		PkgPath:   path,
		Fset:      fset,
		TestFiles: make(map[*ast.File]bool),
	}
	for i, name := range files {
		af, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Files = append(pkg.Files, af)
		pkg.TestFiles[af] = i >= nonTest
		if pkg.Name == "" {
			pkg.Name = af.Name.Name
		}
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(path, fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	pkg.Types = tpkg
	return pkg
}

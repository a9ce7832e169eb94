package experiments

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryHarnessOptionHasACaller holds the rule that an option exists only
// while a caller sets it (DESIGN.md §6). Every exported field of every …Opts
// struct in this package must be set somewhere in the module, outside the
// struct's own fillDefaults: as a composite-literal key, by an assignment or
// an increment, or by taking its address (a flag binding). Tests, the CLI and
// the examples all count. A field nothing sets is a constant in disguise:
// every run has used its default.
func TestEveryHarnessOptionHasACaller(t *testing.T) {
	root := moduleRoot(t)
	src := &moduleSource{
		fset:  token.NewFileSet(),
		root:  root,
		mod:   modulePath(t, root),
		files: map[string]*ast.File{},
	}
	src.std = importer.ForCompiler(src.fset, "source", nil).(types.ImporterFrom)
	harness := src.mod + "/internal/experiments"

	// The packages of the module, each with its in-package test files and
	// its external test package, the harness package first: its fields
	// must be known before any caller's setters are counted.
	type unit struct {
		path         string
		files, xtest []*ast.File
	}
	var units []unit
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		files, err := src.parse(dir, bp.GoFiles)
		if err != nil {
			return err
		}
		tests, err := src.parse(dir, bp.TestGoFiles)
		if err != nil {
			return err
		}
		xtest, err := src.parse(dir, bp.XTestGoFiles)
		if err != nil {
			return err
		}
		u := unit{src.pathOf(dir), append(files[:len(files):len(files)], tests...), xtest}
		if u.path == harness {
			units = append([]unit{u}, units...)
		} else {
			units = append(units, u)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// fields maps the position of each harness option to "Type.Field"; the
	// position is the one identity that survives separate type checks of
	// the same source. owner maps it to the struct's name.
	fields, owner, set := map[string]string{}, map[string]string{}, map[string]int{}
	check := func(path string, files []*ast.File, imp types.Importer) *types.Package {
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, src.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		if path == harness {
			for _, name := range pkg.Scope().Names() {
				st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
				if !ok || !strings.HasSuffix(name, "Opts") {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						pos := src.fset.Position(f.Pos()).String()
						fields[pos], owner[pos] = name+"."+f.Name(), name
					}
				}
			}
		}
		for _, f := range files {
			countSetters(f, info, src.fset, owner, set)
		}
		return pkg
	}
	shared := src.view(nil, nil)
	for _, u := range units {
		under := check(u.path, u.files, shared)
		if len(u.xtest) > 0 {
			// go test builds an external test package against the package
			// under test with its test files, and rebuilds whatever it
			// imports that depends on that package.
			check(u.path+"_test", u.xtest, src.view(shared, under))
		}
	}

	if len(fields) == 0 {
		t.Fatal("found no …Opts fields in internal/experiments")
	}
	var unset []string
	for pos, name := range fields {
		if set[pos] == 0 {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d harness options are set by no caller (fold each into a constant):\n  %s",
			len(unset), len(fields), strings.Join(unset, "\n  "))
	}
}

// countSetters adds one to set[pos] for every setter in f of a field whose
// position owner knows: a composite-literal key, the target of an assignment
// or an increment, or an operand of &. A selector chain counts every field
// on it (o.A.B = x sets A too). Setters inside the owning struct's own
// fillDefaults do not count.
func countSetters(f *ast.File, info *types.Info, fset *token.FileSet, owner map[string]string, set map[string]int) {
	recv := "" // receiver type of the enclosing fillDefaults, if any
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			pos := fset.Position(v.Pos()).String()
			if o, ok := owner[pos]; ok && o != recv {
				set[pos]++
			}
		}
	}
	var chain func(e ast.Expr)
	chain = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				mark(sel.Obj())
			}
			chain(e.X)
		case *ast.ParenExpr:
			chain(e.X)
		case *ast.StarExpr:
			chain(e.X)
		case *ast.IndexExpr:
			chain(e.X)
		}
	}
	for _, decl := range f.Decls {
		recv = ""
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "fillDefaults" && fd.Recv != nil {
			e := fd.Recv.List[0].Type
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			if id, ok := e.(*ast.Ident); ok {
				recv = id.Name
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(info.Uses[id])
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						chain(lhs)
					}
				}
			case *ast.IncDecStmt:
				chain(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					chain(n.X)
				}
			}
			return true
		})
	}
}

// moduleSource type-checks the module's packages from source: the standard
// library through the source importer, the module's own packages through a
// view, which caches each package it has checked.
type moduleSource struct {
	fset      *token.FileSet
	std       types.ImporterFrom
	root, mod string
	files     map[string]*ast.File // parsed files by path
}

// parse parses the named files of dir, each once.
func (s *moduleSource) parse(dir string, names []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, n := range names {
		path := filepath.Join(dir, n)
		f, ok := s.files[path]
		if !ok {
			var err error
			if f, err = parser.ParseFile(s.fset, path, nil, 0); err != nil {
				return nil, err
			}
			s.files[path] = f
		}
		out = append(out, f)
	}
	return out, nil
}

// pathOf is the import path of a directory of the module.
func (s *moduleSource) pathOf(dir string) string {
	rel, _ := filepath.Rel(s.root, dir)
	if rel == "." {
		return s.mod
	}
	return s.mod + "/" + filepath.ToSlash(rel)
}

// view returns an importer for the module's packages. A view made with a
// package under test imports that package in its place and rebuilds every
// module package that imports it, as go test does for an external test;
// every other package it takes from parent.
func (s *moduleSource) view(parent *moduleView, under *types.Package) *moduleView {
	v := &moduleView{src: s, parent: parent, pkgs: map[string]*types.Package{}}
	if under != nil {
		v.under = under.Path()
		v.pkgs[v.under] = under
	}
	return v
}

type moduleView struct {
	src    *moduleSource
	parent *moduleView
	under  string
	pkgs   map[string]*types.Package
}

func (v *moduleView) Import(path string) (*types.Package, error) {
	return v.ImportFrom(path, "", 0)
}

func (v *moduleView) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := v.pkgs[path]; ok {
		return p, nil
	}
	s := v.src
	if path != s.mod && !strings.HasPrefix(path, s.mod+"/") {
		return s.std.ImportFrom(path, dir, mode)
	}
	if v.parent != nil {
		if p, err := v.parent.ImportFrom(path, dir, mode); err == nil && !imports(p, v.under, map[*types.Package]bool{}) {
			v.pkgs[path] = p
			return p, nil
		}
	}
	pkgDir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, s.mod)))
	bp, err := build.ImportDir(pkgDir, 0)
	if err != nil {
		return nil, err
	}
	files, err := s.parse(pkgDir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{Importer: v}).Check(path, s.fset, files, nil)
	if err != nil {
		return nil, err
	}
	v.pkgs[path] = p
	return p, nil
}

// imports reports whether p imports the package at path, directly or not.
func imports(p *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, q := range p.Imports() {
		if q.Path() == path || !seen[q] && imports(q, path, seen) {
			return true
		}
		seen[q] = true
	}
	return false
}

// moduleRoot is the directory of the go.mod above the test's directory.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// modulePath reads the module line of root's go.mod.
func modulePath(t *testing.T, root string) string {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}

package experiments

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestEveryHarnessOptionHasACaller holds the rule that an option exists only
// while a caller sets it (DESIGN.md §6). Every exported field of every …Opts
// struct in this package must be set somewhere in the module, outside the
// struct's own fillDefaults: as a composite-literal key, by an assignment or
// an increment, or by taking its address (a flag binding). Tests, the CLI and
// the examples all count: a harness run size that only tests shrink keeps
// the test runs short. A field nothing sets is a constant in disguise: every
// run has used its default.
func TestEveryHarnessOptionHasACaller(t *testing.T) {
	src := newModuleSource(t)
	harness := src.mod + "/internal/experiments"
	fields := map[string]option{}
	src.structFields(t, fields, harness, func(name string) bool { return strings.HasSuffix(name, "Opts") })
	if len(fields) == 0 {
		t.Fatal("found no …Opts fields in internal/experiments")
	}
	set := map[string]int{}
	src.walk(t, func(path string, files []*ast.File, info *types.Info) {
		for _, f := range files {
			countSetters(f, info, src.fset, fields, set, func(fd *ast.FuncDecl, o option) bool {
				return fd.Name.Name == "fillDefaults" && receiver(fd) == o.typ
			})
		}
	})
	reportUnset(t, fields, set, "harness options")
}

// TestEveryProtocolOptionHasAProductCaller holds protocol configuration to
// the stricter rule (DESIGN.md §6): a field of brunet.Config,
// brunet.ShortcutConfig, natsim.Config or vm.MigrationConfig exists only
// while a product caller sets it — code outside test files and outside
// examples/, the benchmark module under bench/ included. Inside the struct's
// own package only a function that hands the struct to callers counts
// (FastTestConfig, which the NAT and gray harnesses run); its defaults
// (Default…, fillDefaults, the zero-field defaulting of NewNAT or Migrate)
// do not. A field that only tests set is a protocol constant in disguise:
// every product run has used its default.
func TestEveryProtocolOptionHasAProductCaller(t *testing.T) {
	src := newModuleSource(t)
	fields := map[string]option{}
	for _, c := range []struct{ pkg, typ string }{
		{"internal/brunet", "Config"},
		{"internal/brunet", "ShortcutConfig"},
		{"internal/natsim", "Config"},
		{"internal/vm", "MigrationConfig"},
	} {
		src.structFields(t, fields, src.mod+"/"+c.pkg, func(name string) bool { return name == c.typ })
	}
	examples := filepath.Join(src.root, "examples") + string(filepath.Separator)
	set := map[string]int{}
	src.walk(t, func(path string, files []*ast.File, info *types.Info) {
		for _, f := range files {
			name := src.fset.Position(f.Package).Filename
			if strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, examples) {
				continue
			}
			countSetters(f, info, src.fset, fields, set, func(fd *ast.FuncDecl, o option) bool {
				return o.pkg == path && !handsOut(fd, o.typ)
			})
		}
	})
	reportUnset(t, fields, set, "protocol options")
}

// TestNoHandBuiltSubstrate holds product code to one substrate constructor:
// outside internal/sim and internal/phys, the benchmark module under bench/
// and examples/, no non-test file calls sim.New or phys.NewNetwork. A
// harness or the testbed stands on sim.NewSharded and phys.NewShardedNetwork
// (the fabric, one shard when it runs serially), which at one shard is the
// serial engine and network.
func TestNoHandBuiltSubstrate(t *testing.T) {
	src := newModuleSource(t)
	banned := map[string]bool{
		src.mod + "/internal/sim.New":         true,
		src.mod + "/internal/phys.NewNetwork": true,
	}
	var exempt []string
	for _, dir := range []string{"internal/sim", "internal/phys", "bench", "examples"} {
		exempt = append(exempt, filepath.Join(src.root, filepath.FromSlash(dir))+string(filepath.Separator))
	}
	var found []string
	src.walk(t, func(path string, files []*ast.File, info *types.Info) {
		for _, f := range files {
			name := src.fset.Position(f.Package).Filename
			if strings.HasSuffix(name, "_test.go") || slices.ContainsFunc(exempt, func(dir string) bool {
				return strings.HasPrefix(name, dir)
			}) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && banned[fn.FullName()] {
					pos := src.fset.Position(call.Pos())
					rel, _ := filepath.Rel(src.root, pos.Filename)
					found = append(found, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, fn.FullName()))
				}
				return true
			})
		}
	})
	if len(found) > 0 {
		t.Errorf("%d hand-built substrate calls (stand on sim.NewSharded and phys.NewShardedNetwork):\n  %s",
			len(found), strings.Join(found, "\n  "))
	}
}

// TestGoroutinesOnlyInTheKit holds the harnesses to one fan-out: in this
// package's non-test files, a go statement or a sync.WaitGroup appears only
// in parallel (helpers.go), which runs independent legs at once and returns
// the lowest-index error whatever the finishing order. A harness that wants
// legs run at once calls it instead of hand-rolling its own.
func TestGoroutinesOnlyInTheKit(t *testing.T) {
	src := newModuleSource(t)
	harness := src.mod + "/internal/experiments"
	var found []string
	src.walk(t, func(path string, files []*ast.File, info *types.Info) {
		if path != harness {
			return
		}
		for _, f := range files {
			if strings.HasSuffix(src.fset.Position(f.Package).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if ok && fd.Recv == nil && fd.Name.Name == "parallel" {
					continue
				}
				var first token.Pos
				var what []string
				note := func(pos token.Pos, s string) {
					if first == token.NoPos {
						first = pos
					}
					if !slices.Contains(what, s) {
						what = append(what, s)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						note(n.Pos(), "go statement")
					case *ast.Ident:
						if tn, ok := info.Uses[n].(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "WaitGroup" {
							note(n.Pos(), "sync.WaitGroup")
						}
					}
					return true
				})
				if first == token.NoPos {
					continue
				}
				where := "package scope"
				if ok {
					where = fd.Name.Name
				}
				pos := src.fset.Position(first)
				rel, _ := filepath.Rel(src.root, pos.Filename)
				found = append(found, fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(rel), pos.Line, where, strings.Join(what, ", ")))
			}
		}
	})
	if len(found) > 0 {
		t.Errorf("%d harness functions start goroutines themselves (call parallel instead):\n  %s",
			len(found), strings.Join(found, "\n  "))
	}
}

// option is one field of an options struct.
type option struct{ pkg, typ, field string }

func (o option) String() string {
	return o.pkg[strings.LastIndex(o.pkg, "/")+1:] + "." + o.typ + "." + o.field
}

// reportUnset fails the test with every field of fields that set never saw.
func reportUnset(t *testing.T, fields map[string]option, set map[string]int, what string) {
	t.Helper()
	var unset []string
	for pos, o := range fields {
		if set[pos] == 0 {
			unset = append(unset, o.String())
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d %s are set by no caller (fold each into a constant):\n  %s",
			len(unset), len(fields), what, strings.Join(unset, "\n  "))
	}
}

// receiver is the name of fd's receiver type, or "" for a function.
func receiver(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// handsOut reports whether fd, declared in the package of the struct named
// typ, hands callers a value of it: an exported function other than the
// struct's Default… functions, with the struct or a pointer to it among its
// results.
func handsOut(fd *ast.FuncDecl, typ string) bool {
	if !fd.Name.IsExported() || strings.HasPrefix(fd.Name.Name, "Default") || fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		e := r.Type
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		if id, ok := e.(*ast.Ident); ok && id.Name == typ {
			return true
		}
	}
	return false
}

// countSetters adds one to set[pos] for every setter in f of a field of
// fields: a composite-literal key, the target of an assignment or an
// increment, or an operand of &. A selector chain counts every field on it
// (o.A.B = x sets A too). Setters inside a function that exempt names for
// the field's struct do not count.
func countSetters(f *ast.File, info *types.Info, fset *token.FileSet, fields map[string]option, set map[string]int, exempt func(fd *ast.FuncDecl, o option) bool) {
	var fd *ast.FuncDecl // the enclosing function, if any
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			pos := fset.Position(v.Pos()).String()
			if o, ok := fields[pos]; ok && (fd == nil || !exempt(fd, o)) {
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
		fd, _ = decl.(*ast.FuncDecl)
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

func newModuleSource(t *testing.T) *moduleSource {
	root := moduleRoot(t)
	src := &moduleSource{
		fset:  token.NewFileSet(),
		root:  root,
		mod:   modulePath(t, root),
		files: map[string]*ast.File{},
	}
	src.std = importer.ForCompiler(src.fset, "source", nil).(types.ImporterFrom)
	return src
}

// structFields adds to fields, under its position, every exported field of
// the structs of the package at path whose names pick accepts. The
// position is the one identity of a field that survives separate type
// checks of the same source.
func (s *moduleSource) structFields(t *testing.T, fields map[string]option, path string, pick func(name string) bool) {
	t.Helper()
	pkg, err := s.view(nil, nil).Import(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pkg.Scope().Names() {
		st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		if !ok || !pick(name) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[s.fset.Position(f.Pos()).String()] = option{path, name, f.Name()}
			}
		}
	}
}

// walk type-checks every package of the module, each with its in-package
// test files and then its external test package, and hands visit the files
// of each check with what the check resolved. A nested module whose path
// lies under this one's (bench/, which imports the module's packages
// through its replace directive) is walked as part of it; any other is
// skipped.
func (s *moduleSource) walk(t *testing.T, visit func(path string, files []*ast.File, info *types.Info)) {
	t.Helper()
	check := func(path string, files []*ast.File, imp types.Importer) *types.Package {
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		visit(path, files, info)
		return pkg
	}
	shared := s.view(nil, nil)
	err := filepath.WalkDir(s.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != s.root {
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && modulePath(t, dir) != s.pathOf(dir) {
				return filepath.SkipDir // a nested module of its own
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		files, err := s.parse(dir, bp.GoFiles)
		if err != nil {
			return err
		}
		tests, err := s.parse(dir, bp.TestGoFiles)
		if err != nil {
			return err
		}
		xtest, err := s.parse(dir, bp.XTestGoFiles)
		if err != nil {
			return err
		}
		path := s.pathOf(dir)
		under := check(path, append(files[:len(files):len(files)], tests...), shared)
		if len(xtest) > 0 {
			// go test builds an external test package against the package
			// under test with its test files, and rebuilds whatever it
			// imports that depends on that package.
			check(path+"_test", xtest, s.view(shared, under))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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

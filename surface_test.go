package fem2_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSurface keeps non-test code to code the system runs, and
// TestSurfaceLayerBackings binds the layer specifications to it.  It
// type-checks every non-test package of the module and of benchmark/
// for each target CI builds, and lists the exported package-level
// identifiers and methods of internal/ that no non-test code references.
// testdata/surface.txt must name exactly those, one a line, each with
// one reason:
//
//	<identifier> api: <fem2 alias>  a method of the type that exported alias names
//	<identifier> oracle: <test>     the reference another package's test compares against
//	<identifier> support: <test>    test support other packages' tests import
//
// An oracle or support line names a test package ("core") or a top-level
// function of one ("navm.TestParallelCGMatchesSequential") that
// references the identifier from outside the identifier's own package.
// An identifier missing from the file fails the test, and so does a line
// whose identifier is gone, has gained a non-test reference, or whose
// reason no longer holds.
func TestSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	s := scanSurface(t)
	listed := readSurfaceFile(t, filepath.Join("testdata", "surface.txt"))

	perReason := map[string]int{}
	for _, id := range sortedKeys(listed) {
		line := listed[id]
		switch {
		case s.unused[id] == "":
			t.Errorf("testdata/surface.txt lists %s, which is gone or has a non-test reference: delete the line", id)
		case line.reason == "api" && s.api[id[:strings.LastIndex(id, ".")]] != line.detail:
			t.Errorf("testdata/surface.txt: %s is not a method of the type %s aliases", id, line.detail)
		case line.reason != "api" && !s.tests[id][line.detail]:
			t.Errorf("testdata/surface.txt: %s: no test %q outside its package references it (tests that do: %s)",
				id, line.detail, strings.Join(sortedKeys(s.tests[id]), " "))
		default:
			perReason[line.reason]++
		}
	}
	for _, id := range sortedKeys(s.unused) {
		if _, ok := listed[id]; ok {
			continue
		}
		users := "no other package's test uses it"
		if len(s.tests[id]) > 0 {
			users = "tests that use it: " + strings.Join(sortedKeys(s.tests[id]), " ")
		}
		t.Errorf("%s: %s has no non-test reference (%s); delete it, move it into its package's export_test.go, "+
			"or list it in testdata/surface.txt", s.unused[id], id, users)
	}
	t.Logf("%d identifiers without a non-test reference: api %d, oracle %d, support %d",
		len(s.unused), perReason["api"], perReason["oracle"], perReason["support"])
}

// e11Fixture is the experiment that builds values of every level only to
// validate them against the level grammars: its references back no row
// of a layer specification.
const e11Fixture = "exp.E11HGraphValidation"

// TestSurfaceLayerBackings checks every row of core.FEM2Layers: it is
// core.PaperOnly, or its backing names an exported identifier of
// internal/ that non-test code outside the identifier's package
// references, E11's fixture aside.
func TestSurfaceLayerBackings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	s := scanSurface(t)
	layers := core.FEM2Layers()
	for _, e := range layerBackingErrors(s, layers) {
		t.Error(e)
	}
	backed, paper := 0, 0
	for _, l := range layers {
		for _, c := range l.Categories() {
			for _, r := range c.Rows {
				if r.Backing == core.PaperOnly {
					paper++
				} else {
					backed++
				}
			}
		}
	}
	t.Logf("layer rows: %d backed by code, %d specified by the paper only", backed, paper)
}

// TestSurfaceBackingCheckBites feeds the backing check rows it must
// refuse, each backed by an identifier of a kind the module has: one
// that is gone, one only E11's fixture references, one only tests
// reference and one only its own package references.  Each must fail,
// naming its row; a backed and a paper-only row beside them pass.
func TestSurfaceBackingCheckBites(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	s := scanSurface(t)
	var e11Only, ownOnly, testOnly string
	for _, id := range sortedKeys(s.used) {
		switch sites := s.used[id]; {
		case e11Only == "" && len(sites) == 1 && sites[e11Fixture]:
			e11Only = id
		case ownOnly == "" && len(sites) == 0:
			ownOnly = id
		}
	}
	for _, id := range sortedKeys(s.unused) {
		if len(s.tests[id]) > 0 {
			testOnly = id
			break
		}
	}
	if e11Only == "" || ownOnly == "" || testOnly == "" {
		t.Fatalf("no identifier to build a row from: E11 only %q, own package only %q, tests only %q", e11Only, ownOnly, testOnly)
	}
	bad := []core.Row{
		{Text: "refuse a resume of a task not paused", Backing: "spvm.ErrBadTransition"},
		{Text: "a value E11 validates", Backing: e11Only},
		{Text: "a helper tests use", Backing: testOnly},
		{Text: "a package's own helper", Backing: ownOnly},
	}
	spec := &core.LayerSpec{Level: obs.LevelSPVM, Operations: append(bad,
		core.Row{Text: "decode and execute message", Backing: "spvm.Kernel.Handle"},
		core.Row{Text: "remote procedure call", Backing: core.PaperOnly})}
	errs := layerBackingErrors(s, []*core.LayerSpec{spec})
	if len(errs) != len(bad) {
		t.Errorf("%d errors for %d bad rows:\n%s", len(errs), len(bad), strings.Join(errs, "\n"))
	}
	for i, r := range bad {
		if i < len(errs) && strings.Contains(errs[i], strconv.Quote(r.Text)) && strings.Contains(errs[i], r.Backing) {
			t.Logf("refused: %s", errs[i])
			continue
		}
		t.Errorf("row %q backed by %s was not refused by name", r.Text, r.Backing)
	}
}

// layerBackingErrors returns one line for each row of layers whose
// backing is neither core.PaperOnly nor an identifier s.used holds with a
// site outside its own package other than e11Fixture.
func layerBackingErrors(s surfaceScan, layers []*core.LayerSpec) []string {
	var errs []string
	for _, l := range layers {
		for _, c := range l.Categories() {
			for _, r := range c.Rows {
				if msg := backingProblem(s, r.Backing); msg != "" {
					errs = append(errs, fmt.Sprintf("%s %s row %q: %s", l.Level, strings.ToLower(c.Name), r.Text, msg))
				}
			}
		}
	}
	return errs
}

// backingProblem says what is wrong with backing b, or returns "".
func backingProblem(s surfaceScan, b string) string {
	if b == core.PaperOnly {
		return ""
	}
	if _, ok := s.declared[b]; !ok {
		return fmt.Sprintf("backing %q names no exported identifier of internal/; name the code or mark the row core.PaperOnly", b)
	}
	for site := range s.used[b] {
		if site != e11Fixture {
			return ""
		}
	}
	why := "only its own package references it"
	switch {
	case s.used[b][e11Fixture]:
		why = e11Fixture + " references it, building values only to validate them"
	case s.used[b] == nil && len(s.tests[b]) > 0:
		why = "only tests reference it: " + strings.Join(sortedKeys(s.tests[b]), " ")
	case s.used[b] == nil:
		why = "nothing references it"
	}
	return fmt.Sprintf("backing %s has no non-test reference from outside its package (%s); back the row with code a program runs, or mark it core.PaperOnly", b, why)
}

// surfaceReasons are the reasons testdata/surface.txt may give.
var surfaceReasons = map[string]bool{"api": true, "oracle": true, "support": true}

type surfaceLine struct{ reason, detail string }

// readSurfaceFile returns the lines "<identifier> <reason>: <detail>" by
// identifier; blank lines and # comments are skipped.  detail keeps its
// first word.
func readSurfaceFile(t *testing.T, name string) map[string]surfaceLine {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]surfaceLine{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, rest, _ := strings.Cut(line, " ")
		reason, detail, ok := strings.Cut(strings.TrimSpace(rest), ":")
		words := strings.Fields(detail)
		switch {
		case !ok || !surfaceReasons[reason] || len(words) == 0:
			t.Errorf("%s:%d: want \"<identifier> api|oracle|support: <detail>\", got %q", name, n, line)
		case listed[id] != surfaceLine{}:
			t.Errorf("%s:%d: %s listed twice", name, n, id)
		default:
			listed[id] = surfaceLine{reason, words[0]}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return listed
}

// surfaceTargets are the GOOS/GOARCH pairs CI builds.  A reference under
// any one of them counts.
var surfaceTargets = [][2]string{{"linux", "amd64"}, {"linux", "arm64"}, {"windows", "amd64"}}

// surfaceScan is what scanSurface finds.  Identifiers are named by their
// package path under internal/, a method's receiver type, and their own
// name: "navm.TaskCtx.Charge", "codec/codectest.Fill".
type surfaceScan struct {
	// declared maps each exported identifier to where it is declared.
	declared map[string]string
	// used holds each identifier some non-test code references under
	// some target, with the non-test sites outside its own package that
	// do: a package ("fem2", "navm", "cmd/fem2") and its top-level
	// function or method ("exp.E11HGraphValidation",
	// "auvm.Session.DoHeld").
	used map[string]map[string]bool
	// unused maps each exported identifier no non-test code references
	// under any target to where it is declared.
	unused map[string]string
	// tests maps an identifier to the test packages ("fem2", "core") and
	// their top-level functions ("core.TestX") that reference it from
	// outside its own package.
	tests map[string]map[string]bool
	// api maps the types fem2.go's exported aliases name to the alias.
	api map[string]string
}

// scanSurface returns the module's scan, made once for every test that
// reads it.
func scanSurface(t *testing.T) surfaceScan {
	t.Helper()
	surfaceOnce.Do(func() { surfaceResult, surfaceErr = loadSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceResult
}

var (
	surfaceOnce   sync.Once
	surfaceResult surfaceScan
	surfaceErr    error
)

func loadSurface() (surfaceScan, error) {
	dirs, err := modulePackages(".")
	if err != nil {
		return surfaceScan{}, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	parsed := map[string]*ast.File{}
	s := surfaceScan{declared: map[string]string{}, used: map[string]map[string]bool{}}
	for i, target := range surfaceTargets {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.CgoEnabled = target[0], target[1], false
		l := &surfaceLoader{fset: fset, ctxt: &ctxt, std: std, dirs: dirs, parsed: parsed,
			pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{}}
		for _, p := range sortedKeys(dirs) {
			if _, err := l.Import(p); err != nil {
				return surfaceScan{}, fmt.Errorf("%s/%s: %v", target[0], target[1], err)
			}
		}
		if err := l.checkDynamic(); err != nil {
			return surfaceScan{}, err
		}
		l.collect(s.declared, s.used)
		if i == 0 {
			if s.tests, err = l.testUses(); err != nil {
				return surfaceScan{}, err
			}
			s.api = apiTypes(l.pkgs["repro"])
		}
	}
	s.unused = map[string]string{}
	for id, pos := range s.declared {
		if s.used[id] == nil {
			s.unused[id] = pos
		}
	}
	return s, nil
}

// modulePackages maps the import path of every directory under root
// holding Go files to that directory.  benchmark/ is module
// repro/benchmark, so one prefix serves both modules.
func modulePackages(root string) (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dir := filepath.Dir(p)
			path := "repro"
			if dir != "." {
				path += "/" + filepath.ToSlash(dir)
			}
			dirs[path] = dir
		}
		return nil
	})
	return dirs, err
}

// surfaceLoader type-checks the module's non-test packages for one target,
// serving the standard library from a shared source importer.
type surfaceLoader struct {
	fset   *token.FileSet
	ctxt   *build.Context
	std    types.Importer
	dirs   map[string]string
	parsed map[string]*ast.File // by file path, shared across targets
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if l.info.Uses == nil {
		l.info = types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, &l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// parseDir parses the test or the non-test Go files of dir that the
// target builds.
func (l *surfaceLoader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		if match, err := l.ctxt.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		fp := filepath.Join(dir, name)
		f := l.parsed[fp]
		if f == nil {
			if f, err = parser.ParseFile(l.fset, fp, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[fp] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// testUses type-checks each package's tests, in-package and external, and
// returns the test packages and top-level test functions that reference
// each internal/ identifier from outside the identifier's own package.
func (l *surfaceLoader) testUses() (map[string]map[string]bool, error) {
	refs := map[string]map[string]bool{}
	for _, path := range sortedKeys(l.dirs) {
		files, err := l.parseDir(l.dirs[path], true)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		var in, ext []*ast.File
		for _, f := range files {
			if strings.HasSuffix(f.Name.Name, "_test") {
				ext = append(ext, f)
			} else {
				in = append(in, f)
			}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		self, err := (&types.Config{Importer: l}).Check(path, l.fset, append(in, l.files[path]...), info)
		if err != nil {
			return nil, err
		}
		if _, err := (&types.Config{Importer: l.variant(path, self)}).Check(path+"_test", l.fset, ext, info); err != nil {
			return nil, err
		}
		pkgName := sitePackage(path)
		for _, f := range files {
			for _, decl := range f.Decls {
				fn := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = pkgName + "." + fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := internalRef(info, n); ok && path != "repro/internal/"+id[:strings.Index(id, ".")] {
						if refs[id] == nil {
							refs[id] = map[string]bool{}
						}
						refs[id][pkgName] = true
						if fn != "" {
							refs[id][fn] = true
						}
					}
					return true
				})
			}
		}
	}
	return refs, nil
}

// variant returns a loader that serves self, a package checked with its
// in-package tests, for path, as go test builds an external test: the
// packages that import path are checked again against self.
func (l *surfaceLoader) variant(path string, self *types.Package) *surfaceLoader {
	v := &surfaceLoader{fset: l.fset, ctxt: l.ctxt, std: l.std, dirs: l.dirs, parsed: l.parsed,
		pkgs: map[string]*types.Package{path: self}, files: map[string][]*ast.File{}}
	for p, pkg := range l.pkgs {
		if p != path && !importsPath(pkg, path, map[*types.Package]bool{}) {
			v.pkgs[p] = pkg
		}
	}
	return v
}

// importsPath reports whether pkg imports path, directly or not.
func importsPath(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || !seen[imp] && importsPath(imp, path, seen) {
			return true
		}
		seen[imp] = true
	}
	return false
}

// apiTypes maps each internal/ type an exported alias of package fem2
// names ("core.System") to that alias ("fem2.System").
func apiTypes(root *types.Package) map[string]string {
	api := map[string]string{}
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if ok && named.Obj().Pkg() != nil && strings.HasPrefix(named.Obj().Pkg().Path(), "repro/internal/") {
			api[surfaceID(named.Obj())] = "fem2." + name
		}
	}
	return api
}

// checkDynamic type-checks dynamicInterfaces into l.info, where collect
// finds them among the interfaces the code uses.
func (l *surfaceLoader) checkDynamic() error {
	f, err := parser.ParseFile(l.fset, "dynamic.go", dynamicInterfaces, 0)
	if err != nil {
		return err
	}
	_, err = (&types.Config{Importer: l}).Check("dynamic", l.fset, []*ast.File{f}, &l.info)
	return err
}

// dynamicInterfaces are interfaces the standard library calls through
// values the code hands it: fmt's Stringer, errors' Is, As and Unwrap.
const dynamicInterfaces = `package dynamic

import (
	"encoding"
	"encoding/json"
	"fmt"
	"io"
)

type (
	_ error
	_ fmt.Stringer
	_ fmt.GoStringer
	_ fmt.Formatter
	_ encoding.TextMarshaler
	_ encoding.TextUnmarshaler
	_ json.Marshaler
	_ json.Unmarshaler
	_ io.WriterTo
	_ io.ReaderFrom
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
)
`

// collect adds the target's exported internal/ identifiers to declared
// (id -> position) and every identifier some non-test code references
// to used, with the sites outside its package that do.  A function's
// references to itself and a method's receiver type do not count.  A
// method counts as referenced when it implements a method of an
// interface the code uses.
func (l *surfaceLoader) collect(declared map[string]string, used map[string]map[string]bool) {
	var methods []*types.Func
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[surfaceID(obj)] = l.fset.Position(obj.Pos()).String()
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declared[surfaceID(m)] = l.fset.Position(m.Pos()).String()
					methods = append(methods, m)
				}
			}
		}
	}

	for path, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				var self types.Object
				var body ast.Node = decl
				site := declSite(path, decl)
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = l.info.Defs[fd.Name]
					if fd.Body == nil {
						continue
					}
					body = fd.Body
					ast.Inspect(fd.Type, l.markUses(self, path, site, used))
				}
				ast.Inspect(body, l.markUses(self, path, site, used))
			}
		}
	}
	ifaces := map[*types.Interface]bool{}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}
	for _, m := range methods {
		id := surfaceID(m)
		if used[id] != nil {
			continue
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		recv = types.NewPointer(recv)
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj != nil && types.Implements(recv, it) {
				used[id] = map[string]bool{}
				break
			}
		}
	}
}

// markUses returns an inspector adding each internal/ identifier
// referenced, other than self, to used, and site to its sites when the
// code, of package path, is outside the identifier's package.
func (l *surfaceLoader) markUses(self types.Object, path, site string, used map[string]map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] == self {
			return true
		}
		if id, ok := internalRef(&l.info, n); ok {
			if used[id] == nil {
				used[id] = map[string]bool{}
			}
			if path != "repro/internal/"+id[:strings.Index(id, ".")] {
				used[id][site] = true
			}
		}
		return true
	}
}

// declSite names decl, of the package at path, as a site: its package
// and, for a function or method, its name and receiver type.
func declSite(path string, decl ast.Decl) string {
	site := sitePackage(path)
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return site
	}
	if fd.Recv != nil {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			site += "." + id.Name
		}
	}
	return site + "." + fd.Name.Name
}

// sitePackage names the package of import path path as a site: its path
// under internal/ or the module, and "fem2" for the module's root.
func sitePackage(path string) string {
	if path == "repro" {
		return "fem2"
	}
	if p, ok := strings.CutPrefix(path, "repro/internal/"); ok {
		return p
	}
	return strings.TrimPrefix(path, "repro/")
}

// internalRef returns the identifier of the package-level object or method
// of internal/ that n, an identifier, references.
func internalRef(info *types.Info, n ast.Node) (string, bool) {
	ident, ok := n.(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := info.Uses[ident]
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		obj = fn.Origin()
	} else if obj.Parent() != obj.Pkg().Scope() {
		return "", false // a field or a local
	}
	return surfaceID(obj), true
}

// surfaceID names obj by its package path under internal/, its receiver's
// type name for a method, and its own name.
func surfaceID(obj types.Object) string {
	id := strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/") + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				id += named.Obj().Name() + "."
			}
		}
	}
	return id + obj.Name()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

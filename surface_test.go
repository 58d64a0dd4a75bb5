package fem2_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSurface keeps non-test code to code the system runs.  It
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

func scanSurface(t *testing.T) surfaceScan {
	t.Helper()
	dirs, err := modulePackages(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	parsed := map[string]*ast.File{}
	declared := map[string]string{}
	used := map[string]bool{}
	var s surfaceScan
	for i, target := range surfaceTargets {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.CgoEnabled = target[0], target[1], false
		l := &surfaceLoader{fset: fset, ctxt: &ctxt, std: std, dirs: dirs, parsed: parsed,
			pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{}}
		for _, p := range sortedKeys(dirs) {
			if _, err := l.Import(p); err != nil {
				t.Fatalf("%s/%s: %v", target[0], target[1], err)
			}
		}
		if err := l.checkDynamic(); err != nil {
			t.Fatal(err)
		}
		l.collect(declared, used)
		if i == 0 {
			if s.tests, err = l.testUses(); err != nil {
				t.Fatal(err)
			}
			s.api = apiTypes(l.pkgs["repro"])
		}
	}
	s.unused = map[string]string{}
	for id, pos := range declared {
		if !used[id] {
			s.unused[id] = pos
		}
	}
	return s
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
		pkgName := strings.TrimPrefix(path, "repro/internal/")
		if path == "repro" {
			pkgName = "fem2"
		}
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
// to used.  A function's references to itself and a method's receiver
// type do not count.  A method counts as referenced when it implements a
// method of an interface the code uses.
func (l *surfaceLoader) collect(declared map[string]string, used map[string]bool) {
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

	for _, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				var self types.Object
				var body ast.Node = decl
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = l.info.Defs[fd.Name]
					if fd.Body == nil {
						continue
					}
					body = fd.Body
					ast.Inspect(fd.Type, l.markUses(self, used))
				}
				ast.Inspect(body, l.markUses(self, used))
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
		if used[id] {
			continue
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		recv = types.NewPointer(recv)
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj != nil && types.Implements(recv, it) {
				used[id] = true
				break
			}
		}
	}
}

// markUses returns an inspector adding each internal/ identifier
// referenced, other than self, to used.
func (l *surfaceLoader) markUses(self types.Object, used map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] == self {
			return true
		}
		if id, ok := internalRef(&l.info, n); ok {
			used[id] = true
		}
		return true
	}
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

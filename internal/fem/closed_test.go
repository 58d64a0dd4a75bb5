package fem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// embedsElement returns the embedded fields of file's struct types that
// are Bar, CST, *Bar or *CST of this package: spelled bare in a file of
// package fem, or through whatever name a file imports fem under.
func embedsElement(fset *token.FileSet, file *ast.File) []string {
	femName := ""
	if file.Name.Name == "fem" {
		femName = "."
	}
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "repro/internal/fem" {
			femName = "fem"
			if imp.Name != nil {
				femName = imp.Name.Name
			}
		}
	}
	if femName == "" {
		return nil
	}
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			if len(f.Names) > 0 {
				continue
			}
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			name := ""
			switch t := typ.(type) {
			case *ast.Ident:
				if femName == "." {
					name = t.Name
				}
			case *ast.SelectorExpr:
				if x, ok := t.X.(*ast.Ident); ok && x.Name == femName {
					name = t.Sel.Name
				}
			}
			if name == "Bar" || name == "CST" {
				found = append(found, fset.Position(f.Pos()).String()+": embeds "+name)
			}
		}
		return true
	})
	return found
}

// TestNoTypeEmbedsAnElement closes the element set by construction (ROADMAP
// 5e): no non-test file of the main module declares a struct type that
// embeds a Bar or a CST.  Such a type would promote the embedded
// AppendStiffnessInputs while it could override StiffnessInto, and the
// retained assembly's input record would then trust inputs that do not
// list everything the stiffness reads.  Test files may (stiffCST is the
// witness table's deliberate second type); nested modules are not ours.
func TestNoTypeEmbedsAnElement(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	fset := token.NewFileSet()
	files := 0
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		found = append(found, embedsElement(fset, file)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d non-test files from %s; the module has more", files, root)
	}
	for _, f := range found {
		t.Errorf("%s: the element set is closed; a type embedding Bar or CST could override StiffnessInto behind the input record", f)
	}
}

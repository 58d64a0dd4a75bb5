package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// catalogNames parses names.go for the metric name constants: exact
// names, and the prefixes (trailing dot) of the dynamic families.
func catalogNames(t *testing.T) (names map[string]bool, prefixes []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, ".") {
			prefixes = append(prefixes, name)
		} else {
			names[name] = true
		}
		return true
	})
	if len(names) == 0 || len(prefixes) == 0 {
		t.Fatalf("names.go yields %d names and %d prefixes", len(names), len(prefixes))
	}
	return names, prefixes
}

// TestObservabilityDocCatalog fails when docs/observability.md and
// names.go drift apart: every name constant must be documented (a
// family by a back-ticked name under its prefix), and every back-ticked
// dotted metric name in the document's tables must be a constant or
// belong to a family.
func TestObservabilityDocCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	names, prefixes := catalogNames(t)
	inFamily := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	ticked := regexp.MustCompile("`([^`]+)`")
	metric := regexp.MustCompile(`^[a-z_]+(\.[a-z_<>-]+)+$`)
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range ticked.FindAllStringSubmatch(line, -1) {
			name := m[1]
			if !metric.MatchString(name) {
				continue
			}
			documented[name] = true
			if !names[name] && !inFamily(name) {
				t.Errorf("docs/observability.md documents `%s`, which names.go does not define", name)
			}
		}
	}
	for name := range names {
		if !documented[name] {
			t.Errorf("names.go defines %q, which no table in docs/observability.md documents", name)
		}
	}
	for _, p := range prefixes {
		found := false
		for name := range documented {
			found = found || strings.HasPrefix(name, p)
		}
		if !found {
			t.Errorf("names.go defines the family %q, which no table in docs/observability.md documents", p)
		}
	}
}

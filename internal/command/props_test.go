package command

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sortedVerbs lists the verb table's keys in the order both renderings
// below use.
func sortedVerbs() []string {
	names := make([]string, 0, len(cmdByVerb))
	for verb := range cmdByVerb {
		names = append(names, verb)
	}
	sort.Strings(names)
	return names
}

// zeroOf builds the zero command of a verb; the properties depend on the
// type alone.
func zeroOf(verb string) Command {
	return reflect.New(cmdByVerb[verb].typ).Elem().Interface().(Command)
}

// TestVerbSetsGolden pins every verb against the eight per-verb policy
// sets.  The golden was written from — and checked against — the
// hand-coded predicates that preceded the property table (the server's
// drain/degraded/follower/timeout switches, the client's replay and
// deadline switches, the three not-a-job lists, the scheduler's heavy
// switch), so it must never be regenerated from the table it judges.
func TestVerbSetsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/verb_sets.golden")
	if err != nil {
		t.Fatal(err)
	}
	mark := func(in bool) string {
		if in {
			return "x"
		}
		return "-"
	}
	var b strings.Builder
	for _, verb := range sortedVerbs() {
		// Through PropsOf, and with the expressions the callers use.
		p := PropsOf(zeroOf(verb))
		sets := []bool{
			p.RefusedDraining(),              // server, draining
			p.RefusedDegraded(),              // server, store degraded
			p.Has(LeaderOnly),                // server, cluster follower
			p.ServerTimeoutExempt(),          // server, RequestTimeout
			p.Has(Replayable),                // client, replay after a link failure
			p.Has(Blocks),                    // client, RequestTimeout
			Submittable(zeroOf(verb)) != nil, // parser, wire decoder, scheduler
			p.Has(Heavy),                     // scheduler, worker pool
		}
		marks := make([]string, len(sets))
		for i, in := range sets {
			marks[i] = mark(in)
		}
		fmt.Fprintf(&b, "%-14s %s\n", verb, strings.Join(marks, " "))
	}
	var want strings.Builder
	for _, ln := range strings.SplitAfter(string(raw), "\n") {
		if !strings.HasPrefix(ln, "#") {
			want.WriteString(ln)
		}
	}
	if b.String() != want.String() {
		t.Errorf("derived verb sets differ from testdata/verb_sets.golden\n--- derived\n%s--- golden\n%s", b.String(), want.String())
	}
}

// TestEveryCommandTypeHasAVerbRow reads the AST's own source: a struct
// that implements Command but has no verbs row would otherwise
// get no properties and be served everywhere.  (A row without a reviewed
// line in the golden fails TestVerbSetsGolden.)
func TestEveryCommandTypeHasAVerbRow(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "command.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, row := range verbs {
		rows[reflect.TypeOf(row.cmd).Name()] = true
	}
	found := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "isCommand" || fn.Recv == nil {
			continue
		}
		found++
		name := fn.Recv.List[0].Type.(*ast.Ident).Name
		if !rows[name] {
			t.Errorf("command type %s has no verbs row", name)
		}
	}
	if found != len(verbs) || len(cmdByVerb) != len(verbs) {
		t.Errorf("%d command types, %d verb rows, %d wire verbs", found, len(verbs), len(cmdByVerb))
	}
}

// TestPropsOfDoesNotAllocate: the lookup runs on every request.
func TestPropsOfDoesNotAllocate(t *testing.T) {
	var byValue Command = Solve{Model: "m", Set: "l"}
	var byPointer Command = &Solve{Model: "m", Set: "l"}
	var sink Props
	allocs := testing.AllocsPerRun(100, func() {
		sink |= PropsOf(byValue) | PropsOf(byPointer)
	})
	if allocs != 0 {
		t.Errorf("PropsOf allocates %.0f times per call pair", allocs)
	}
	if !sink.Has(Heavy) || PropsOf(nil) != 0 {
		t.Errorf("PropsOf(solve) = %b, PropsOf(nil) = %b", sink, PropsOf(nil))
	}
}

// verbPropsTable renders the verb table as the markdown block
// docs/protocol.md carries.
func verbPropsTable() string {
	cols := []struct {
		name string
		flag Props
	}{
		{"mutates-workspace", MutatesWorkspace}, {"writes-store", WritesStore},
		{"leader-only", LeaderOnly}, {"replayable", Replayable}, {"blocks", Blocks},
		{"detaches-context", DetachesContext}, {"not-a-job", NotAJob}, {"heavy", Heavy},
	}
	var b strings.Builder
	b.WriteString("| verb |")
	for _, c := range cols {
		b.WriteString(" " + c.name + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat(":-:|", len(cols)) + "\n")
	for _, verb := range sortedVerbs() {
		fmt.Fprintf(&b, "| `%s` |", verb)
		for _, c := range cols {
			if cmdByVerb[verb].row.props.Has(c.flag) {
				b.WriteString(" ✓ |")
			} else {
				b.WriteString("  |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestProtocolDocVerbTable fails when docs/protocol.md's "Verb
// properties" table drifts from the code table; the failure prints the
// block to paste.
func TestProtocolDocVerbTable(t *testing.T) {
	const begin, end = "<!-- verb-properties:begin -->\n", "<!-- verb-properties:end -->"
	raw, err := os.ReadFile("../../docs/protocol.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("docs/protocol.md has no %s…%s block", strings.TrimSpace(begin), end)
	}
	if got, want := doc[i+len(begin):j], verbPropsTable(); got != want {
		t.Errorf("docs/protocol.md verb table is stale; replace the block with:\n%s", want)
	}
}

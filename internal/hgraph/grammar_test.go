package hgraph

import (
	"fmt"
	"strings"
	"testing"
)

// buildInitiateMessage constructs a well-formed H-graph model of an SPVM
// "initiate" message.
func buildInitiateMessage(reps int64) *Graph {
	g := NewGraph("msg")
	root := g.Add("message")
	root.Arc("type", g.AddAtom("t", Str("initiate")))
	root.Arc("task-type", g.AddAtom("tt", Str("cg-worker")))
	root.Arc("replications", g.AddAtom("k", Int(reps)))
	root.Arc("parent", g.AddAtom("p", Int(0)))
	params := g.Add("params")
	params.Arc("0", g.AddAtom("p0", Int(64)))
	params.Arc("1", g.AddAtom("p1", Float(1e-8)))
	root.Arc("params", params)
	return g
}

func buildTerminateMessage() *Graph {
	g := NewGraph("msg")
	root := g.Add("message")
	root.Arc("type", g.AddAtom("t", Str("terminate")))
	root.Arc("task", g.AddAtom("id", Int(3)))
	root.Arc("parent", g.AddAtom("p", Int(1)))
	return g
}

func TestSPVMGrammarWellFormed(t *testing.T) {
	if errs := SPVMMessageGrammar().WellFormed(); len(errs) > 0 {
		t.Fatalf("SPVM grammar ill-formed: %v", errs)
	}
}

func TestAllLevelGrammarsWellFormed(t *testing.T) {
	for name, g := range AllLevelGrammars() {
		if errs := g.WellFormed(); len(errs) > 0 {
			t.Errorf("grammar %q ill-formed: %v", name, errs)
		}
	}
}

func TestValidInitiateMessageAccepted(t *testing.T) {
	g := SPVMMessageGrammar()
	if errs := g.Validate(buildInitiateMessage(8)); len(errs) > 0 {
		t.Errorf("valid initiate rejected: %v", errs)
	}
}

func TestValidTerminateMessageAccepted(t *testing.T) {
	g := SPVMMessageGrammar()
	if errs := g.Validate(buildTerminateMessage()); len(errs) > 0 {
		t.Errorf("valid terminate rejected: %v", errs)
	}
}

// TestEveryMessageTypeHasAProduction: the three messages the NAVM sends
// have productions, and the four the paper alone specifies have none.
func TestEveryMessageTypeHasAProduction(t *testing.T) {
	g := SPVMMessageGrammar()
	for _, name := range []string{"initiate", "terminate", "load-code"} {
		if g.Production(name) == nil {
			t.Errorf("missing production for message type %q", name)
		}
	}
	for _, name := range []string{"pause", "resume", "remote-call", "remote-return", "window"} {
		if g.Production(name) != nil {
			t.Errorf("production <%s> for a message nothing sends", name)
		}
	}
}

func TestMissingFieldRejected(t *testing.T) {
	m := buildInitiateMessage(8)
	m.Entry().RemoveArc("replications")
	if errs := SPVMMessageGrammar().Validate(m); len(errs) == 0 {
		t.Error("initiate without replications accepted")
	}
}

func TestWrongAtomKindRejected(t *testing.T) {
	m := buildInitiateMessage(8)
	// replications must be INT, make it a string
	m.Entry().Arc("replications", m.AddAtom("bad", Str("eight")))
	if errs := SPVMMessageGrammar().Validate(m); len(errs) == 0 {
		t.Error("initiate with string replications accepted")
	}
}

func TestUnknownMessageTypeRejected(t *testing.T) {
	m := buildTerminateMessage()
	m.Entry().Arc("type", m.AddAtom("t", Str("pause"))) // the paper's, not sent
	errs := SPVMMessageGrammar().Validate(m)
	if len(errs) == 0 {
		t.Error("unknown message type accepted")
	}
}

func TestClosedStructRejectsExtraArc(t *testing.T) {
	m := buildTerminateMessage()
	m.Entry().Arc("extra", m.AddAtom("x", Int(1)))
	if errs := SPVMMessageGrammar().Validate(m); len(errs) == 0 {
		t.Error("closed struct accepted extra arc")
	}
}

func TestListTypeGapRejected(t *testing.T) {
	m := buildInitiateMessage(1)
	params := m.Entry().Follow("params")
	params.RemoveArc("0") // leaves index 1 without index 0 — a gap
	if errs := SPVMMessageGrammar().Validate(m); len(errs) == 0 {
		t.Error("gapped list accepted")
	}
}

func TestListTypeNonCanonicalIndexRejected(t *testing.T) {
	g := NewGrammar("l", "s")
	g.Define("s", ListType{Elem: AtomType{AtomInt}})
	for _, sel := range []string{"1x", "01", "+1", "-0", " 1"} {
		gr := NewGraph("x")
		root := gr.Add("root")
		root.Arc("0", gr.AddAtom("a", Int(1)))
		root.Arc("1", gr.AddAtom("b", Int(2)))
		root.Arc(sel, gr.AddAtom("c", Str("not an int")))
		if errs := g.Validate(gr); len(errs) == 0 {
			t.Errorf("list with arc %q accepted", sel)
		}
	}
}

func TestListMinLen(t *testing.T) {
	g := NewGrammar("l", "s")
	g.Define("s", ListType{Elem: AtomType{AtomInt}, MinLen: 2})
	gr := NewGraph("x")
	root := gr.Add("root")
	root.Arc("0", gr.AddAtom("a", Int(1)))
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("list below MinLen accepted")
	}
	root.Arc("1", gr.AddAtom("b", Int(2)))
	if errs := g.Validate(gr); len(errs) > 0 {
		t.Errorf("list at MinLen rejected: %v", errs)
	}
}

func TestWindowGrammarAcceptsAllKinds(t *testing.T) {
	g := WindowGrammar()
	for _, kind := range []string{"row"} {
		gr := NewGraph("w")
		root := gr.Add("window")
		root.Arc("array", gr.AddAtom("a", Str("K")))
		root.Arc("kind", gr.AddAtom("k", Str(kind)))
		root.Arc("owner", gr.AddAtom("o", Int(2)))
		root.Arc("row0", gr.AddAtom("r0", Int(0)))
		root.Arc("rows", gr.AddAtom("r", Int(4)))
		root.Arc("col0", gr.AddAtom("c0", Int(0)))
		root.Arc("cols", gr.AddAtom("c", Int(4)))
		if errs := g.Validate(gr); len(errs) > 0 {
			t.Errorf("window kind %q rejected: %v", kind, errs)
		}
	}
}

func TestWindowGrammarRejectsBadKind(t *testing.T) {
	g := WindowGrammar()
	gr := NewGraph("w")
	root := gr.Add("window")
	root.Arc("array", gr.AddAtom("a", Str("K")))
	root.Arc("kind", gr.AddAtom("k", Str("diagonal")))
	root.Arc("owner", gr.AddAtom("o", Int(2)))
	root.Arc("row0", gr.AddAtom("r0", Int(0)))
	root.Arc("rows", gr.AddAtom("r", Int(4)))
	root.Arc("col0", gr.AddAtom("c0", Int(0)))
	root.Arc("cols", gr.AddAtom("c", Int(4)))
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("window kind \"diagonal\" accepted")
	}
}

func TestTaskStateGrammar(t *testing.T) {
	g := ActivationRecordGrammar()
	mk := func(state string) *Graph {
		gr := NewGraph("activation")
		root := gr.Add("activation")
		root.Arc("task", gr.AddAtom("id", Int(7)))
		root.Arc("parent", gr.AddAtom("p", Int(0)))
		root.Arc("code-block", gr.AddAtom("cb", Str("worker")))
		root.Arc("params", gr.AddList("params", 1, func(int) *Node { return gr.AddAtom("p", Float(2)) }))
		root.Arc("local-words", gr.AddAtom("lw", Int(33)))
		root.Arc("state", gr.AddAtom("s", Str(state)))
		return gr
	}
	for _, s := range []string{"ready", "running"} {
		if errs := g.Validate(mk(s)); len(errs) > 0 {
			t.Errorf("task state %q rejected: %v", s, errs)
		}
	}
	// A terminated task has no record: terminate deletes it.
	for _, s := range []string{"terminated", "zombie", "paused"} {
		if errs := g.Validate(mk(s)); len(errs) == 0 {
			t.Errorf("task state %q accepted", s)
		}
	}
	results := mk("running")
	results.Entry().Arc("results", results.Add("results"))
	if errs := g.Validate(results); len(errs) == 0 {
		t.Error("activation record with a results arc accepted")
	}
	saved := mk("running")
	saved.Entry().Arc("saved", saved.AddAtom("sv", Int(1)))
	if errs := g.Validate(saved); len(errs) == 0 {
		t.Error("activation record with a saved flag accepted")
	}
}

func TestStructureModelGrammar(t *testing.T) {
	g := StructureModelGrammar()
	gr := NewGraph("model")
	root := gr.Add("model")
	root.Arc("name", gr.AddAtom("n", Str("wing-panel")))
	root.Arc("nodes", gr.AddList("nodes", 3, func(i int) *Node {
		n := gr.Add("node")
		n.Arc("x", gr.AddAtom("x", Float(float64(i))))
		n.Arc("y", gr.AddAtom("y", Float(0)))
		return n
	}))
	steel := gr.Add("material")
	for _, sel := range []string{"E", "nu", "t", "A"} {
		steel.Arc(sel, gr.AddAtom(sel, Float(1)))
	}
	cst := gr.Add("cst")
	cst.Arc("kind", gr.AddAtom("k", Str("cst")))
	bar := gr.Add("bar")
	bar.Arc("kind", gr.AddAtom("k", Str("bar")))
	for i, sel := range []string{"n1", "n2", "n3"} {
		cst.Arc(sel, gr.AddAtom(sel, Int(int64(i))))
		if sel != "n3" {
			bar.Arc(sel, gr.AddAtom(sel, Int(int64(i))))
		}
	}
	cst.Arc("material", steel)
	bar.Arc("material", steel)
	elems := []*Node{cst, bar}
	root.Arc("elements", gr.AddList("elements", 2, func(i int) *Node { return elems[i] }))
	root.Arc("fixed", gr.AddList("fixed", 2, func(i int) *Node { return gr.AddAtom("d", Int(int64(i))) }))
	entry := gr.Add("entry")
	entry.Arc("dof", gr.AddAtom("d", Int(4)))
	entry.Arc("value", gr.AddAtom("v", Float(-1000)))
	tip := gr.Add("loadset")
	tip.Arc("name", gr.AddAtom("ln", Str("tip-load")))
	tip.Arc("entries", gr.AddList("entries", 1, func(int) *Node { return entry }))
	root.Arc("loads", gr.AddList("loads", 1, func(int) *Node { return tip }))

	if errs := g.Validate(gr); len(errs) > 0 {
		t.Errorf("valid model rejected: %v", errs)
	}
	// A bar with a third node is no element the model record holds.
	bar.Arc("n3", gr.AddAtom("n3", Int(2)))
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("bar with three nodes accepted")
	}
	bar.RemoveArc("n3")
	cst.Arc("kind", gr.AddAtom("k", Str("frame")))
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("frame element accepted")
	}
	cst.Arc("kind", gr.AddAtom("k", Str("cst")))
	root.Arc("grid", gr.Add("grid"))
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("model with a grid arc accepted")
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	g := WindowGrammar()
	if errs := g.Validate(nil); len(errs) == 0 {
		t.Error("nil graph accepted")
	}
	if errs := g.Validate(NewGraph("empty")); len(errs) == 0 {
		t.Error("empty graph accepted")
	}
}

func TestUndefinedProductionReported(t *testing.T) {
	g := NewGrammar("g", "start")
	g.Define("start", Ref("nowhere"))
	if errs := g.WellFormed(); len(errs) == 0 {
		t.Error("dangling reference not reported by WellFormed")
	}
	gr := NewGraph("x")
	gr.Add("root")
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("validation against dangling reference did not fail")
	}
}

func TestWellFormedMissingStart(t *testing.T) {
	g := NewGrammar("g", "start")
	if errs := g.WellFormed(); len(errs) == 0 {
		t.Error("missing start production not reported")
	}
}

func TestRecursiveGrammarAcceptsCyclicGraph(t *testing.T) {
	// <list-node> ::= {next?: <list-node>, val: INT} — a circular linked
	// list should validate without infinite recursion.
	g := NewGrammar("rec", "list-node")
	g.Define("list-node", StructType{Fields: []Field{
		{Sel: "val", Type: AtomType{AtomInt}},
		{Sel: "next", Type: Ref("list-node"), Optional: true},
	}})
	gr := NewGraph("ring")
	a := gr.Add("a")
	b := gr.Add("b")
	a.Arc("val", gr.AddAtom("av", Int(1)))
	b.Arc("val", gr.AddAtom("bv", Int(2)))
	a.Arc("next", b)
	b.Arc("next", a)
	if errs := g.Validate(gr); len(errs) > 0 {
		t.Errorf("cyclic list rejected: %v", errs)
	}
}

func TestEmptyUnionMatchesNothing(t *testing.T) {
	g := NewGrammar("g", "s")
	g.Define("s", UnionType{})
	gr := NewGraph("x")
	gr.Add("root")
	if errs := g.Validate(gr); len(errs) == 0 {
		t.Error("empty union accepted a node")
	}
}

func TestGrammarStringListsProductions(t *testing.T) {
	s := SPVMMessageGrammar().String()
	for _, want := range []string{"<message>", "<initiate>", "<load-code>", "::="} {
		if !strings.Contains(s, want) {
			t.Errorf("grammar String missing %q", want)
		}
	}
}

func TestTypeExprStrings(t *testing.T) {
	cases := []struct {
		e    TypeExpr
		want string
	}{
		{AtomType{AtomInt}, "INT"},
		{AtomType{AtomFloat}, "FLOAT"},
		{AtomType{AtomString}, "STRING"},
		{AtomType{7}, "ATOM(7)"},
		{LitString{"x"}, `"x"`},
		{Ref("foo"), "<foo>"},
		{AnyType{}, "ANY"},
		{ListType{Elem: AtomType{AtomInt}}, "LIST(INT)"},
		{UnionType{Alts: []TypeExpr{LitString{"a"}, LitString{"b"}}}, `"a" | "b"`},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	st := StructType{Fields: []Field{{Sel: "a", Type: AtomType{AtomInt}}, {Sel: "b", Type: AnyType{}, Optional: true}}, Closed: true}
	if got := st.String(); got != "{a: INT, b?: ANY}" {
		t.Errorf("StructType.String() = %q", got)
	}
	open := StructType{Fields: []Field{{Sel: "a", Type: AtomType{AtomInt}}}}
	if got := open.String(); got != "{a: INT, ...}" {
		t.Errorf("open StructType.String() = %q", got)
	}
}

func TestValidateNodeDirectly(t *testing.T) {
	g := SPVMMessageGrammar()
	m := buildTerminateMessage()
	if errs := g.ValidateNode(m.Entry(), "terminate"); len(errs) > 0 {
		t.Errorf("ValidateNode terminate failed: %v", errs)
	}
	if errs := g.ValidateNode(m.Entry(), "load-code"); len(errs) == 0 {
		t.Error("terminate node validated as load-code")
	}
}

func TestValidateManyMessages(t *testing.T) {
	// Throughput-style correctness check over many instances — the same
	// loop E11 benchmarks.
	g := SPVMMessageGrammar()
	for i := 0; i < 200; i++ {
		m := buildInitiateMessage(int64(i))
		if errs := g.Validate(m); len(errs) > 0 {
			t.Fatalf("message %d rejected: %v", i, errs)
		}
	}
}

func ExampleGrammar_Validate() {
	g := WindowGrammar()
	gr := NewGraph("w")
	root := gr.Add("window")
	root.Arc("array", gr.AddAtom("a", Str("stiffness")))
	root.Arc("kind", gr.AddAtom("k", Str("row")))
	root.Arc("owner", gr.AddAtom("o", Int(3)))
	root.Arc("row0", gr.AddAtom("r0", Int(8)))
	root.Arc("rows", gr.AddAtom("r", Int(1)))
	root.Arc("col0", gr.AddAtom("c0", Int(0)))
	root.Arc("cols", gr.AddAtom("c", Int(64)))
	fmt.Println(len(g.Validate(gr)))
	// Output: 0
}

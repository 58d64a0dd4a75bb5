package hgraph

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAtomConstructorsAndString(t *testing.T) {
	cases := []struct {
		a    Atom
		want string
	}{
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{Str("hi"), `"hi"`},
		{Atom{Kind: AtomBool, B: true}, "true"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("Atom.String() = %q, want %q", got, c.want)
		}
	}
}

func TestNodeArcFollow(t *testing.T) {
	a := NewNode("a")
	b := NewNode("b")
	a.Arc("next", b)
	if a.Follow("next") != b {
		t.Error("Follow did not return target")
	}
	if a.Follow("missing") != nil {
		t.Error("Follow of missing selector should be nil")
	}
	if got := a.Selectors(); len(got) != 1 || got[0] != "next" {
		t.Errorf("Selectors = %v", got)
	}
	if !a.RemoveArc("next") {
		t.Error("RemoveArc returned false for existing arc")
	}
	if a.RemoveArc("next") {
		t.Error("RemoveArc returned true for missing arc")
	}
}

func TestNodeAtomVsSubExclusive(t *testing.T) {
	n := NewNode("n")
	n.SetAtom(Int(1))
	if !n.HasAtom || n.Sub != nil {
		t.Error("SetAtom state wrong")
	}
	n.SetSub(NewGraph("g"))
	if n.HasAtom || n.Sub == nil {
		t.Error("SetSub must clear atom")
	}
	n.SetAtom(Int(2))
	if n.Sub != nil {
		t.Error("SetAtom must clear subgraph")
	}
}

func TestGraphEntryDefaultsToFirstNode(t *testing.T) {
	g := NewGraph("g")
	if g.Entry() != nil {
		t.Error("empty graph entry should be nil")
	}
	a := g.Add("a")
	g.Add("b")
	if g.Entry() != a {
		t.Error("entry should default to first node")
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestWalkVisitsReachableOnceIncludingCycles(t *testing.T) {
	g := NewGraph("g")
	a := g.Add("a")
	b := g.Add("b")
	a.Arc("fwd", b)
	b.Arc("back", a) // cycle
	count := map[string]int{}
	g.Walk(func(depth int, sel string, n *Node) { count[n.Label]++ })
	if count["a"] != 1 || count["b"] != 1 {
		t.Errorf("Walk visit counts = %v", count)
	}
}

func TestWalkDescendsIntoSubgraphs(t *testing.T) {
	inner := NewGraph("inner")
	inner.Add("deep")
	g := NewGraph("outer")
	root := g.Add("root")
	root.SetSub(inner)
	var labels []string
	g.Walk(func(depth int, sel string, n *Node) { labels = append(labels, n.Label) })
	if len(labels) != 2 || labels[0] != "root" || labels[1] != "deep" {
		t.Errorf("Walk labels = %v", labels)
	}
}

func TestPathNavigation(t *testing.T) {
	g := NewGraph("g")
	root := g.Add("root")
	h := NewNode("header")
	ty := NewAtomNode("type", Str("initiate"))
	root.Arc("header", h)
	h.Arc("type", ty)
	if got := g.Path("header.type"); got != ty {
		t.Error("Path failed to reach node")
	}
	if g.Path("header.missing") != nil {
		t.Error("Path of missing selector should be nil")
	}
	if g.Path("") != root {
		t.Error("empty Path should return entry")
	}
	if g.Path("a.b.c.d") != nil {
		t.Error("deep missing path should be nil")
	}
}

func TestCloneIsDeepAndPreservesStructure(t *testing.T) {
	g := NewGraph("g")
	a := g.Add("a")
	b := g.AddAtom("b", Int(5))
	a.Arc("x", b)
	b.Arc("loop", a)
	inner := NewGraph("inner")
	inner.AddAtom("leaf", Str("v"))
	a.SetSub(inner)

	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	ca := c.Entry()
	if ca == a {
		t.Fatal("clone shares nodes")
	}
	cb := ca.Follow("x")
	if cb == nil || !cb.HasAtom || cb.Atom.I != 5 {
		t.Fatal("clone lost arc or atom")
	}
	if cb.Follow("loop") != ca {
		t.Error("clone broke cycle identity")
	}
	if ca.Sub == nil || ca.Sub == inner {
		t.Error("clone must deep-copy subgraphs")
	}
	// Mutating the clone must not affect the original.
	cb.SetAtom(Int(99))
	if b.Atom.I != 5 {
		t.Error("clone shares atom storage")
	}
}

func TestCloneNil(t *testing.T) {
	var g *Graph
	if g.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestGraphStringRendersAtomsAndSubgraphs(t *testing.T) {
	g := NewGraph("demo")
	root := g.Add("root")
	root.Arc("v", g.AddAtom("val", Float(2.5)))
	inner := NewGraph("inner")
	inner.Add("i")
	root.SetSub(inner)
	s := g.String()
	for _, want := range []string{"demo", "root", "val", "2.5", "inner"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

// Property: Clone is an isomorphism — walking original and clone yields
// the same (depth, selector, label, atom) sequence.
func TestQuickCloneIsomorphic(t *testing.T) {
	type step struct {
		Depth int
		Sel   string
		Label string
		Atom  string
	}
	record := func(g *Graph) []step {
		var out []step
		g.Walk(func(depth int, sel string, n *Node) {
			a := ""
			if n.HasAtom {
				a = n.Atom.String()
			}
			out = append(out, step{depth, sel, n.Label, a})
		})
		return out
	}
	f := func(labels []string, vals []int64) bool {
		g := NewGraph("q")
		var nodes []*Node
		for i, l := range labels {
			if i < len(vals) {
				nodes = append(nodes, g.AddAtom(l, Int(vals[i])))
			} else {
				nodes = append(nodes, g.Add(l))
			}
		}
		// Chain plus a back-arc to make cycles.
		for i := 1; i < len(nodes); i++ {
			nodes[i-1].Arc("n", nodes[i])
		}
		if len(nodes) > 2 {
			nodes[len(nodes)-1].Arc("back", nodes[0])
		}
		c := g.Clone()
		a, b := record(g), record(c)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

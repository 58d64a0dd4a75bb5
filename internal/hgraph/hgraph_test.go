package hgraph

import (
	"strings"
	"testing"
)

func TestAtomConstructorsAndString(t *testing.T) {
	cases := []struct {
		a    Atom
		want string
	}{
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{Str("hi"), `"hi"`},
		{Atom{Kind: 7}, "atom(7)"},
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

func TestGraphStringRendersAtoms(t *testing.T) {
	g := NewGraph("demo")
	root := g.Add("root")
	root.Arc("v", g.AddAtom("val", Float(2.5)))
	s := g.String()
	for _, want := range []string{"demo", "root", "v -> val", "2.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

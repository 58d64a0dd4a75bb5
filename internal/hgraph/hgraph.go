// Package hgraph implements H-graph semantics, the formal specification
// method the FEM-2 design uses to define each layer of virtual machine.
//
// Following Pratt's H-graph semantics (ICASE/UVa report 83-2, cited as [7]
// in the paper):
//
//   - data objects are modeled as hierarchies of directed graphs
//     (H-graphs) in which the nodes represent abstract storage locations
//     and the arcs represent access paths;
//   - data types are modeled using formal "H-graph grammars", a type of
//     BNF grammar in which the "language" defined is a set of H-graphs
//     representing a class of data objects;
//   - operations are modeled as "H-graph transforms", functions defining
//     transformations on the H-graph models of data objects, which may
//     invoke each other in the usual manner of subprogram calling
//     hierarchies.
//
// This package implements graphs and grammars without the hierarchy: a
// node holds an atom or nothing, never a nested graph, because no level
// grammar of FEM-2 needs one.  Hierarchy and transforms are specified by
// the paper, not reproduced.  spec.go carries the formal definitions of
// the FEM-2 virtual machine levels, and each grammar has one builder that
// renders the live value it specifies: spvm.Message and
// spvm.ActivationRecord's ToHGraph, spvm.WindowDesc's (which a
// navm.Window renders through) and auvm.Database's ModelGraph of a stored
// model.  Those packages' tests validate the values their layer builds,
// and experiment E11 counts the live instances accepted and the mutants
// rejected.
package hgraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Atom is a primitive value stored in a node: one of int64, float64 or
// string.  An Atom distinguishes leaf storage locations from the
// locations arcs lead out of.
type Atom struct {
	Kind AtomKind
	I    int64
	F    float64
	S    string
}

// AtomKind enumerates the primitive kinds.
type AtomKind int

// Primitive kinds of atoms.
const (
	AtomInt AtomKind = iota
	AtomFloat
	AtomString
)

// String renders the atom as a literal.
func (a Atom) String() string {
	switch a.Kind {
	case AtomInt:
		return fmt.Sprintf("%d", a.I)
	case AtomFloat:
		return fmt.Sprintf("%g", a.F)
	case AtomString:
		return fmt.Sprintf("%q", a.S)
	default:
		return fmt.Sprintf("atom(%d)", int(a.Kind))
	}
}

// Int returns an integer atom.
func Int(v int64) Atom { return Atom{Kind: AtomInt, I: v} }

// Float returns a floating point atom.
func Float(v float64) Atom { return Atom{Kind: AtomFloat, F: v} }

// Str returns a string atom.
func Str(v string) Atom { return Atom{Kind: AtomString, S: v} }

// Node is an abstract storage location.  Its value is an Atom (leaf) or
// empty.  Arcs to other nodes are labeled with selectors and represent
// access paths.
type Node struct {
	// Label is a diagnostic name; it has no semantic weight.
	Label string
	// Atom holds the leaf value when HasAtom is true.
	Atom    Atom
	HasAtom bool
	// arcs maps selector → target node.
	arcs map[string]*Node
}

// NewNode returns an empty node with the given diagnostic label.
func NewNode(label string) *Node { return &Node{Label: label} }

// NewAtomNode returns a leaf node holding the atom.
func NewAtomNode(label string, a Atom) *Node {
	return &Node{Label: label, Atom: a, HasAtom: true}
}

// Arc creates (or replaces) the access path named sel from n to target.
func (n *Node) Arc(sel string, target *Node) *Node {
	if n.arcs == nil {
		n.arcs = make(map[string]*Node)
	}
	n.arcs[sel] = target
	return n
}

// Follow returns the node reached by the access path sel, or nil.
func (n *Node) Follow(sel string) *Node {
	return n.arcs[sel]
}

// Selectors returns the sorted selectors of the arcs leaving n.
func (n *Node) Selectors() []string {
	out := make([]string, 0, len(n.arcs))
	for s := range n.arcs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Graph is a directed graph of nodes with one distinguished entry node.
// The entry plays the role of BNF's start symbol when a grammar describes
// the graph.
type Graph struct {
	// Name is a diagnostic label for the graph.
	Name  string
	entry *Node
	nodes []*Node
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddNode inserts a node into the graph and returns it.  The first node
// added becomes the entry.
func (g *Graph) AddNode(n *Node) *Node {
	g.nodes = append(g.nodes, n)
	if g.entry == nil {
		g.entry = n
	}
	return n
}

// Add is shorthand for AddNode(NewNode(label)).
func (g *Graph) Add(label string) *Node { return g.AddNode(NewNode(label)) }

// AddAtom is shorthand for AddNode(NewAtomNode(label, a)).
func (g *Graph) AddAtom(label string, a Atom) *Node {
	return g.AddNode(NewAtomNode(label, a))
}

// AddList adds a list node whose arcs "0" .. "n-1" lead to elem(0) ..
// elem(n-1), the shape ListType accepts, and returns it.
func (g *Graph) AddList(label string, n int, elem func(i int) *Node) *Node {
	l := g.Add(label)
	for i := 0; i < n; i++ {
		l.Arc(strconv.Itoa(i), elem(i))
	}
	return l
}

// Entry returns the distinguished entry node (nil for an empty graph).
func (g *Graph) Entry() *Node { return g.entry }

// Walk visits every node reachable from the entry by arcs, in
// deterministic order, calling visit once per node.  Cycles are handled.
func (g *Graph) Walk(visit func(depth int, sel string, n *Node)) {
	if g == nil || g.entry == nil {
		return
	}
	seen := map[*Node]bool{}
	var rec func(depth int, sel string, n *Node)
	rec = func(depth int, sel string, n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		visit(depth, sel, n)
		for _, s := range n.Selectors() {
			rec(depth+1, s, n.Follow(s))
		}
	}
	rec(0, "", g.entry)
}

// String renders the graph as an indented access-path listing, giving a
// readable form of the formal model.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q:\n", g.Name)
	g.Walk(func(depth int, sel string, n *Node) {
		b.WriteString(strings.Repeat("  ", depth+1))
		if sel != "" {
			fmt.Fprintf(&b, "%s -> ", sel)
		}
		b.WriteString(n.Label)
		if n.HasAtom {
			fmt.Fprintf(&b, " = %s", n.Atom)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

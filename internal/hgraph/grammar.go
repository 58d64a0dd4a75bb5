package hgraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TypeExpr is one alternative on the right-hand side of an H-graph grammar
// production.  A TypeExpr constrains the shape of a node: its atom kind,
// its outgoing arcs, or a choice among alternatives.
// This plays the role BNF right-hand sides play for strings — the
// "language" a grammar defines is a set of H-graphs.
type TypeExpr interface {
	// check validates node n against the expression within grammar g,
	// appending any violations to errs.  seen guards against cycles of
	// (node, production) pairs.
	check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error)
	// String renders the expression in grammar notation.
	String() string
}

type memoKey struct {
	n    *Node
	prod string
}

// AtomType requires the node to hold an atom of the given kind.
type AtomType struct{ Kind AtomKind }

// String renders the atom type name.
func (t AtomType) String() string {
	switch t.Kind {
	case AtomInt:
		return "INT"
	case AtomFloat:
		return "FLOAT"
	case AtomString:
		return "STRING"
	default:
		return fmt.Sprintf("ATOM(%d)", int(t.Kind))
	}
}

func (t AtomType) check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error) {
	if !n.HasAtom {
		*errs = append(*errs, fmt.Errorf("%s: expected %s atom, node %q has none", path, t, n.Label))
		return
	}
	if n.Atom.Kind != t.Kind {
		*errs = append(*errs, fmt.Errorf("%s: expected %s, node %q holds %s", path, t, n.Label, n.Atom))
	}
}

// LitString requires the node to hold exactly the given string atom; it is
// how grammars pin discriminator fields like a message's type tag.
type LitString struct{ Value string }

// String renders the literal.
func (t LitString) String() string { return fmt.Sprintf("%q", t.Value) }

func (t LitString) check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error) {
	if !n.HasAtom || n.Atom.Kind != AtomString {
		*errs = append(*errs, fmt.Errorf("%s: expected literal %q, node %q is not a string atom", path, t.Value, n.Label))
		return
	}
	if n.Atom.S != t.Value {
		*errs = append(*errs, fmt.Errorf("%s: expected literal %q, got %q", path, t.Value, n.Atom.S))
	}
}

// Field describes one required or optional arc of a StructType.
type Field struct {
	Sel      string
	Type     TypeExpr
	Optional bool
}

// StructType requires the node to have arcs for each listed field (unless
// optional), each target conforming to the field's type.  When Closed is
// true, arcs with selectors not listed are violations.
type StructType struct {
	Fields []Field
	Closed bool
}

// String renders the struct in record notation.
func (t StructType) String() string {
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		opt := ""
		if f.Optional {
			opt = "?"
		}
		parts[i] = fmt.Sprintf("%s%s: %s", f.Sel, opt, f.Type)
	}
	open := ""
	if !t.Closed {
		open = ", ..."
	}
	return "{" + strings.Join(parts, ", ") + open + "}"
}

func (t StructType) check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error) {
	listed := map[string]bool{}
	for _, f := range t.Fields {
		listed[f.Sel] = true
		target := n.Follow(f.Sel)
		if target == nil {
			if !f.Optional {
				*errs = append(*errs, fmt.Errorf("%s: missing required arc %q on node %q", path, f.Sel, n.Label))
			}
			continue
		}
		f.Type.check(g, target, path+"."+f.Sel, seen, errs)
	}
	if t.Closed {
		for _, s := range n.Selectors() {
			if !listed[s] {
				*errs = append(*errs, fmt.Errorf("%s: unexpected arc %q on node %q (closed struct)", path, s, n.Label))
			}
		}
	}
}

// ListType requires the node to carry arcs "0", "1", ..., "n-1" (a dense
// index sequence) each conforming to Elem.  Grammars use it for message
// parameter lists and element connectivity.
type ListType struct {
	Elem TypeExpr
	// MinLen is the minimum number of elements.
	MinLen int
}

// String renders the list type.
func (t ListType) String() string { return fmt.Sprintf("LIST(%s)", t.Elem) }

func (t ListType) check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error) {
	count := 0
	for {
		target := n.Follow(strconv.Itoa(count))
		if target == nil {
			break
		}
		t.Elem.check(g, target, fmt.Sprintf("%s[%d]", path, count), seen, errs)
		count++
	}
	if count < t.MinLen {
		*errs = append(*errs, fmt.Errorf("%s: list has %d elements, minimum %d", path, count, t.MinLen))
	}
	// Every arc must be a dense index, written in canonical decimal: "01",
	// "+1" and "1x" are not index 1.
	for _, s := range n.Selectors() {
		if idx, err := strconv.Atoi(s); err != nil || idx < 0 || idx >= count || strconv.Itoa(idx) != s {
			*errs = append(*errs, fmt.Errorf("%s: non-index or gapped arc %q in list node %q", path, s, n.Label))
		}
	}
}

// UnionType accepts a node conforming to any one alternative.
type UnionType struct{ Alts []TypeExpr }

// String renders the union with BNF-style bars.
func (t UnionType) String() string {
	parts := make([]string, len(t.Alts))
	for i, a := range t.Alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, " | ")
}

func (t UnionType) check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error) {
	var best []error
	for _, alt := range t.Alts {
		var sub []error
		// Each alternative gets a fresh memo scope so failures in one
		// don't poison another.
		alt.check(g, n, path, map[memoKey]bool{}, &sub)
		if len(sub) == 0 {
			return
		}
		if best == nil || len(sub) < len(best) {
			best = sub
		}
	}
	if len(t.Alts) == 0 {
		*errs = append(*errs, fmt.Errorf("%s: empty union matches nothing", path))
		return
	}
	*errs = append(*errs, fmt.Errorf("%s: no union alternative matched (closest: %v)", path, best[0]))
}

// RefType refers to another production by name, giving grammars the
// recursive power of BNF.
type RefType struct{ Prod string }

// Ref returns a reference to the named production.
func Ref(name string) RefType { return RefType{Prod: name} }

// String renders the nonterminal in angle brackets.
func (t RefType) String() string { return "<" + t.Prod + ">" }

func (t RefType) check(g *Grammar, n *Node, path string, seen map[memoKey]bool, errs *[]error) {
	rhs, ok := g.prods[t.Prod]
	if !ok {
		*errs = append(*errs, fmt.Errorf("%s: grammar %q has no production <%s>", path, g.Name, t.Prod))
		return
	}
	key := memoKey{n: n, prod: t.Prod}
	if seen[key] {
		return // already being checked on this path: cyclic structure accepted
	}
	seen[key] = true
	rhs.check(g, n, path, seen, errs)
}

// AnyType accepts every node; used where the grammar leaves a component
// unconstrained.
type AnyType struct{}

// String renders the wildcard.
func (AnyType) String() string { return "ANY" }

func (AnyType) check(*Grammar, *Node, string, map[memoKey]bool, *[]error) {}

// Grammar is a named set of productions, nonterminal → TypeExpr, with one
// start production.  It corresponds to the paper's "H-graph grammar, a type
// of BNF grammar in which the language defined is a set of H-graphs".
type Grammar struct {
	Name  string
	Start string
	prods map[string]TypeExpr
}

// NewGrammar creates a grammar with the given start nonterminal.
func NewGrammar(name, start string) *Grammar {
	return &Grammar{Name: name, Start: start, prods: map[string]TypeExpr{}}
}

// Define adds (or replaces) the production for the nonterminal.
func (g *Grammar) Define(nonterminal string, rhs TypeExpr) *Grammar {
	g.prods[nonterminal] = rhs
	return g
}

// Productions returns the sorted nonterminal names.
func (g *Grammar) Productions() []string {
	out := make([]string, 0, len(g.prods))
	for k := range g.prods {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Production returns the right-hand side for a nonterminal, or nil.
func (g *Grammar) Production(name string) TypeExpr { return g.prods[name] }

// WellFormed checks that the start production exists and that every
// RefType target is defined, returning all dangling references.
func (g *Grammar) WellFormed() []error {
	var errs []error
	if _, ok := g.prods[g.Start]; !ok {
		errs = append(errs, fmt.Errorf("hgraph: grammar %q start production <%s> undefined", g.Name, g.Start))
	}
	var walk func(e TypeExpr)
	walk = func(e TypeExpr) {
		switch t := e.(type) {
		case RefType:
			if _, ok := g.prods[t.Prod]; !ok {
				errs = append(errs, fmt.Errorf("hgraph: grammar %q references undefined <%s>", g.Name, t.Prod))
			}
		case StructType:
			for _, f := range t.Fields {
				walk(f.Type)
			}
		case ListType:
			walk(t.Elem)
		case UnionType:
			for _, a := range t.Alts {
				walk(a)
			}
		}
	}
	for _, name := range g.Productions() {
		walk(g.prods[name])
	}
	return errs
}

// Validate checks graph gr against the grammar's start production,
// returning every violation found (empty means the graph is in the
// grammar's language).
func (g *Grammar) Validate(gr *Graph) []error {
	if gr == nil || gr.Entry() == nil {
		return []error{fmt.Errorf("hgraph: grammar %q: graph is empty", g.Name)}
	}
	var errs []error
	Ref(g.Start).check(g, gr.Entry(), gr.Name, map[memoKey]bool{}, &errs)
	return errs
}

// ValidateNode checks a single node against a named production.
func (g *Grammar) ValidateNode(n *Node, prod string) []error {
	var errs []error
	Ref(prod).check(g, n, n.Label, map[memoKey]bool{}, &errs)
	return errs
}

// String renders every production in BNF-like notation.
func (g *Grammar) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "grammar %q (start <%s>)\n", g.Name, g.Start)
	for _, name := range g.Productions() {
		fmt.Fprintf(&b, "  <%s> ::= %s\n", name, g.prods[name])
	}
	return b.String()
}

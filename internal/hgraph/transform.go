package hgraph

import (
	"errors"
	"fmt"
	"strings"
)

// ErrPrecondition is returned when a transform's input graph violates its
// input grammar.
var ErrPrecondition = errors.New("hgraph: transform precondition violated")

// ErrPostcondition is returned when a transform's output graph violates
// its output grammar — i.e. the implementation does not meet its formal
// specification.
var ErrPostcondition = errors.New("hgraph: transform postcondition violated")

// ErrUnknownTransform is returned when invoking a name with no definition.
var ErrUnknownTransform = errors.New("hgraph: unknown transform")

// TransformFunc is the body of an H-graph transform.  It receives a deep
// clone of the input graph (so the formal pre-state is preserved) and the
// enclosing interpreter, through which it may invoke other transforms in
// the usual manner of subprogram calling hierarchies.
type TransformFunc func(in *Graph, ip *Interp) (*Graph, error)

// Transform is a named, formally specified operation on H-graphs: a
// function from graphs in the language of In to graphs in the language of
// Out.
type Transform struct {
	// Name identifies the transform in the registry.
	Name string
	// In, when non-nil, is the grammar the input graph must satisfy
	// (the formal precondition).
	In *Grammar
	// Out, when non-nil, is the grammar the result must satisfy (the
	// formal postcondition).
	Out *Grammar
	// Body performs the transformation.
	Body TransformFunc
	// Doc describes the operation in the formal model.
	Doc string
}

// Registry holds the transforms of one virtual machine's formal
// definition.
type Registry struct {
	name string
	m    map[string]*Transform
}

// NewRegistry returns an empty registry named for a VM level.
func NewRegistry(name string) *Registry {
	return &Registry{name: name, m: map[string]*Transform{}}
}

// Register adds a transform, replacing any previous definition of the same
// name.
func (r *Registry) Register(t *Transform) *Registry {
	r.m[t.Name] = t
	return r
}

// Lookup returns the named transform, or nil.
func (r *Registry) Lookup(name string) *Transform { return r.m[name] }

// CallRecord is one entry in an interpreter's call trace.
type CallRecord struct {
	Depth int
	Name  string
}

// Interp applies transforms, enforcing their grammar pre/postconditions
// and recording the subprogram calling hierarchy.  It models the "overall
// flow of control in a model of a virtual machine".
type Interp struct {
	reg *Registry
	// MaxDepth bounds transform recursion; 0 means the default of 256.
	MaxDepth int
	depth    int
	calls    []CallRecord
	// CheckPost disables postcondition checking when false is useful
	// only for measuring checking overhead; defaults to true.
	CheckPost bool
}

// NewInterp returns an interpreter over the registry.
func NewInterp(reg *Registry) *Interp {
	return &Interp{reg: reg, CheckPost: true}
}

// CallTree renders the recorded hierarchy with indentation.
func (ip *Interp) CallTree() string {
	var b strings.Builder
	for _, c := range ip.calls {
		b.WriteString(strings.Repeat("  ", c.Depth))
		b.WriteString(c.Name)
		b.WriteByte('\n')
	}
	return b.String()
}

// Invoke applies the named transform to graph in, checking the formal
// precondition, running the body on a clone, and checking the formal
// postcondition on the result.
func (ip *Interp) Invoke(name string, in *Graph) (*Graph, error) {
	t := ip.reg.Lookup(name)
	if t == nil {
		return nil, fmt.Errorf("%w: %q in registry %q", ErrUnknownTransform, name, ip.reg.name)
	}
	maxDepth := ip.MaxDepth
	if maxDepth == 0 {
		maxDepth = 256
	}
	if ip.depth >= maxDepth {
		return nil, fmt.Errorf("hgraph: transform recursion exceeds %d at %q", maxDepth, name)
	}
	ip.calls = append(ip.calls, CallRecord{Depth: ip.depth, Name: name})

	if t.In != nil {
		if errs := t.In.Validate(in); len(errs) > 0 {
			return nil, fmt.Errorf("%w: %q: %v", ErrPrecondition, name, errs[0])
		}
	}
	ip.depth++
	out, err := t.Body(in.Clone(), ip)
	ip.depth--
	if err != nil {
		return nil, fmt.Errorf("hgraph: transform %q: %w", name, err)
	}
	if t.Out != nil && ip.CheckPost {
		if errs := t.Out.Validate(out); len(errs) > 0 {
			return nil, fmt.Errorf("%w: %q: %v", ErrPostcondition, name, errs[0])
		}
	}
	return out, nil
}

package hgraph

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// counterGrammar: <counter> ::= {value: INT}
func counterGrammar() *Grammar {
	g := NewGrammar("counter", "counter")
	g.Define("counter", StructType{Closed: true, Fields: []Field{
		{Sel: "value", Type: AtomType{AtomInt}},
	}})
	return g
}

func counterGraph(v int64) *Graph {
	g := NewGraph("counter")
	root := g.Add("counter")
	root.Arc("value", g.AddAtom("v", Int(v)))
	return g
}

func counterValue(g *Graph) int64 {
	return g.Path("value").Atom.I
}

// incTransform adds 1 to the counter and satisfies the grammar both ways.
func incTransform() *Transform {
	cg := counterGrammar()
	return &Transform{
		Name: "inc",
		In:   cg,
		Out:  cg,
		Doc:  "increment the counter value",
		Body: func(in *Graph, ip *Interp) (*Graph, error) {
			n := in.Path("value")
			n.SetAtom(Int(n.Atom.I + 1))
			return in, nil
		},
	}
}

func TestInvokeAppliesTransform(t *testing.T) {
	reg := NewRegistry("test")
	reg.Register(incTransform())
	ip := NewInterp(reg)
	in := counterGraph(41)
	out, err := ip.Invoke("inc", in)
	if err != nil {
		t.Fatal(err)
	}
	if counterValue(out) != 42 {
		t.Errorf("inc result = %d, want 42", counterValue(out))
	}
	// The input graph is untouched (the body received a clone).
	if counterValue(in) != 41 {
		t.Errorf("transform mutated its input: %d", counterValue(in))
	}
}

func TestInvokeUnknownTransform(t *testing.T) {
	ip := NewInterp(NewRegistry("empty"))
	_, err := ip.Invoke("nope", counterGraph(0))
	if !errors.Is(err, ErrUnknownTransform) {
		t.Errorf("want ErrUnknownTransform, got %v", err)
	}
}

func TestPreconditionEnforced(t *testing.T) {
	reg := NewRegistry("test")
	reg.Register(incTransform())
	ip := NewInterp(reg)
	bad := NewGraph("bad")
	bad.Add("no-value-arc")
	_, err := ip.Invoke("inc", bad)
	if !errors.Is(err, ErrPrecondition) {
		t.Errorf("want ErrPrecondition, got %v", err)
	}
}

func TestPostconditionEnforced(t *testing.T) {
	cg := counterGrammar()
	reg := NewRegistry("test")
	reg.Register(&Transform{
		Name: "break",
		In:   cg,
		Out:  cg,
		Body: func(in *Graph, ip *Interp) (*Graph, error) {
			in.Entry().RemoveArc("value") // violates output grammar
			return in, nil
		},
	})
	ip := NewInterp(reg)
	_, err := ip.Invoke("break", counterGraph(1))
	if !errors.Is(err, ErrPostcondition) {
		t.Errorf("want ErrPostcondition, got %v", err)
	}
	// With CheckPost disabled the same transform passes.
	ip2 := NewInterp(reg)
	ip2.CheckPost = false
	if _, err := ip2.Invoke("break", counterGraph(1)); err != nil {
		t.Errorf("CheckPost=false still failed: %v", err)
	}
}

func TestTransformsInvokeEachOther(t *testing.T) {
	cg := counterGrammar()
	reg := NewRegistry("test")
	reg.Register(incTransform())
	reg.Register(&Transform{
		Name: "inc-twice",
		In:   cg,
		Out:  cg,
		Body: func(in *Graph, ip *Interp) (*Graph, error) {
			once, err := ip.Invoke("inc", in)
			if err != nil {
				return nil, err
			}
			return ip.Invoke("inc", once)
		},
	})
	ip := NewInterp(reg)
	out, err := ip.Invoke("inc-twice", counterGraph(0))
	if err != nil {
		t.Fatal(err)
	}
	if counterValue(out) != 2 {
		t.Errorf("inc-twice = %d, want 2", counterValue(out))
	}
	calls := ip.Calls()
	if len(calls) != 3 {
		t.Fatalf("call records = %d, want 3", len(calls))
	}
	if calls[0].Name != "inc-twice" || calls[0].Depth != 0 {
		t.Errorf("first call = %+v", calls[0])
	}
	if calls[1].Name != "inc" || calls[1].Depth != 1 {
		t.Errorf("second call = %+v", calls[1])
	}
	tree := ip.CallTree()
	if !strings.Contains(tree, "inc-twice\n  inc\n  inc\n") {
		t.Errorf("CallTree = %q", tree)
	}
}

func TestRecursionDepthBounded(t *testing.T) {
	reg := NewRegistry("test")
	reg.Register(&Transform{
		Name: "loop",
		Body: func(in *Graph, ip *Interp) (*Graph, error) {
			return ip.Invoke("loop", in)
		},
	})
	ip := NewInterp(reg)
	ip.MaxDepth = 10
	_, err := ip.Invoke("loop", counterGraph(0))
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("unbounded recursion not caught: %v", err)
	}
}

func TestBodyErrorWrapped(t *testing.T) {
	reg := NewRegistry("test")
	boom := errors.New("boom")
	reg.Register(&Transform{
		Name: "fail",
		Body: func(in *Graph, ip *Interp) (*Graph, error) { return nil, boom },
	})
	ip := NewInterp(reg)
	_, err := ip.Invoke("fail", counterGraph(0))
	if !errors.Is(err, boom) {
		t.Errorf("body error not wrapped: %v", err)
	}
}

func ExampleInterp_Invoke() {
	reg := NewRegistry("demo")
	reg.Register(incTransform())
	ip := NewInterp(reg)
	out, _ := ip.Invoke("inc", counterGraph(9))
	fmt.Println(counterValue(out))
	// Output: 10
}

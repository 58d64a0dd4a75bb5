package fem

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
)

// twoWalk is the oracle of the one walk: the retained workspace's checks
// as they were before it, verbatim but for where they keep their state
// and one rule — matches over the workspace's topology, then unchanged
// over a record of each element's concrete type and stiffness inputs
// (appendStiffnessInputs), where an element that is not a *Bar or a *CST
// is never unchanged.  The record is taken from a deep copy of the model
// at each recording pass (a new non-zero Workspace.pass), and it counts
// as the witness for as long as the workspace keeps that pass's token.
type twoWalk struct {
	pass   uint64
	types  []reflect.Type
	inputs []float64
	inOff  []int
	probe  []float64
	nodes  []int
}

// record keeps what the recording pass with token pass read from m.
func (o *twoWalk) record(m *Model, pass uint64) {
	ne := len(m.Elements)
	o.pass = pass
	o.types = make([]reflect.Type, ne)
	o.inOff = make([]int, ne+1)
	o.inputs = o.inputs[:0]
	for ei, e := range m.Elements {
		o.types[ei] = reflect.TypeOf(e)
		o.inputs, _ = appendStiffnessInputs(m, e, o.inputs)
		o.inOff[ei+1] = len(o.inputs)
	}
}

// matches is the workspace's topology check before the one walk.
func (o *twoWalk) matches(ws *Workspace, m *Model) bool {
	if m.NumDOF() != len(ws.index) || len(m.Elements) != len(ws.ndof) {
		return false
	}
	// FixDOF only ever adds true entries, so equal counts plus every
	// fixed dof being one the workspace eliminated means equal sets.
	if len(m.fixed) != len(ws.index)-len(ws.free) {
		return false
	}
	for d, fixed := range m.fixed {
		if !fixed || ws.index[d] >= 0 {
			return false
		}
	}
	c := 0
	for ei, e := range m.Elements {
		o.nodes = e.AppendNodes(o.nodes[:0])
		if DOFPerNode*len(o.nodes) != ws.ndof[ei] {
			return false
		}
		for _, n := range o.nodes {
			if n != int(ws.conn[c]) {
				return false
			}
			c++
		}
	}
	return true
}

// unchanged is Workspace.unchanged before the one walk; the caller has
// just run matches.
func (o *twoWalk) unchanged(ws *Workspace, m *Model) bool {
	if witnessed := o.pass != 0 && ws.pass == o.pass; !witnessed {
		return false
	}
	for ei, e := range m.Elements {
		if reflect.TypeOf(e) != o.types[ei] {
			return false
		}
		var ok bool
		if o.probe, ok = appendStiffnessInputs(m, e, o.probe[:0]); !ok {
			return false
		}
		rec := o.inputs[o.inOff[ei]:o.inOff[ei+1]]
		if len(o.probe) != len(rec) {
			return false
		}
		for i, v := range o.probe {
			if v != v || math.Float64bits(v) != math.Float64bits(rec[i]) {
				return false
			}
		}
	}
	return true
}

// The outcomes differential.walks counts: the walk found another
// topology, the same topology with other values, or nothing changed.
const (
	walkTopology = iota
	walkValues
	walkSame
)

// checkWalk demands that the retained workspace's walk of m return
// exactly the two-walk oracle's (topo, same), and counts the outcome.
func (d *differential) checkWalk(t testing.TB, label string, m *Model) {
	t.Helper()
	ws := m.retained.ws
	if ws == nil {
		return
	}
	wantTopo := d.oracle.matches(ws, m)
	wantSame := wantTopo && d.oracle.unchanged(ws, m)
	topo, same := ws.walk(m)
	if topo != wantTopo || same != wantSame {
		t.Fatalf("%s: walk (topo %v, same %v), two-walk oracle (%v, %v)", label, topo, same, wantTopo, wantSame)
	}
	switch {
	case !topo:
		d.walks[walkTopology]++
	case !same:
		d.walks[walkValues]++
	default:
		d.walks[walkSame]++
	}
}

// recordPass brings the oracle's record up to the workspace's: after a
// solve whose recording pass left a new token, it records m, which is
// what that pass read.
func (d *differential) recordPass(t testing.TB, m *Model) {
	if ws := m.retained.ws; ws != nil && ws.pass != 0 && ws.pass != d.oracle.pass {
		d.oracle.record(deepCopy(t, m), ws.pass)
	}
}

// TestWalkMatchesTwoWalkOracle runs seeded random edit scripts through
// runRetainedScript, every op of FuzzRetainedSolve included, so that
// differential.solve compares the one walk with the two-walk oracle
// before and after every solve.  (TestStiffnessWitnessCannotLie and
// FuzzRetainedSolve make the same comparison through the same helper.)
// Every outcome must come up: a changed topology, changed values, and
// nothing changed.  Then a NaN in each recorded place.
func TestWalkMatchesTwoWalkOracle(t *testing.T) {
	var walks [3]int
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 24; i++ {
		script := make([]byte, 1+3*16)
		rng.Read(script)
		d := runRetainedScript(t, script)
		for k, n := range d.walks {
			walks[k] += n
		}
	}
	// A NaN the recording pass read, in each place a value is recorded,
	// never matches, not even itself: the solve after the one that read
	// it must assemble again.  A NaN on a node no element uses is never
	// read, so that solve skips.
	const barIndex, spareNode = 48, 35 // as in TestStiffnessWitnessCannotLie
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		edit  func(m *Model)
		skips bool
	}{
		{"CST Mat.E", func(m *Model) { m.Elements[4].(*CST).Mat.E = nan }, false},
		{"CST Mat.Nu", func(m *Model) { m.Elements[4].(*CST).Mat.Nu = nan }, false},
		{"CST Mat.T", func(m *Model) { m.Elements[4].(*CST).Mat.T = nan }, false},
		{"CST Mat.A", func(m *Model) { m.Elements[4].(*CST).Mat.A = nan }, false},
		{"Bar Mat.E", func(m *Model) { m.Elements[barIndex].(*Bar).Mat.E = nan }, false},
		{"Bar Mat.Nu", func(m *Model) { m.Elements[barIndex].(*Bar).Mat.Nu = nan }, false},
		{"Bar Mat.T", func(m *Model) { m.Elements[barIndex].(*Bar).Mat.T = nan }, false},
		{"Bar Mat.A", func(m *Model) { m.Elements[barIndex].(*Bar).Mat.A = nan }, false},
		{"used node X", func(m *Model) { m.Nodes[12].X = nan }, false},
		{"used node Y", func(m *Model) { m.Nodes[12].Y = nan }, false},
		{"unused node", func(m *Model) { m.Nodes[spareNode].X = nan }, true},
	} {
		m, ls := witnessModel(t)
		d := newDifferential()
		d.solve(t, tc.name+", cold", m, ls, linalg.BackendCG)
		tc.edit(m)
		d.solve(t, tc.name+", edited", m, ls, linalg.BackendCG)
		if skipped, _ := d.solve(t, tc.name+", again", m, ls, linalg.BackendCG); skipped != tc.skips {
			t.Errorf("%s: the solve after the NaN was read skipped the numeric assembly = %v", tc.name, skipped)
		}
	}

	t.Logf("walk outcomes, topology/values/same: %v", walks)
	for k, n := range walks {
		if n < 20 {
			t.Errorf("outcome %d of the walk came up %d times: topology/values/same %v", k, n, walks)
		}
	}
}

// Stand-ins for names the product code no longer has, for the tests
// that still need what they did.

// appendStiffnessInputs appends the stiffness inputs of a *Bar or a *CST
// to dst through the retired Element.AppendStiffnessInputs below; ok is
// false for an element of any other type.
func appendStiffnessInputs(m *Model, e Element, dst []float64) (_ []float64, ok bool) {
	switch e := e.(type) {
	case *Bar:
		return e.AppendStiffnessInputs(m, dst), true
	case *CST:
		return e.AppendStiffnessInputs(m, dst), true
	}
	return dst, false
}

// AppendStiffnessInputs appends the end-node coordinates and the
// material: everything StiffnessInto reads beyond the connectivity.
func (b *Bar) AppendStiffnessInputs(m *Model, dst []float64) []float64 {
	p1, p2 := m.Nodes[b.N1], m.Nodes[b.N2]
	return append(dst, p1.X, p1.Y, p2.X, p2.Y, b.Mat.E, b.Mat.Nu, b.Mat.T, b.Mat.A)
}

// AppendStiffnessInputs appends the corner coordinates and the
// material: everything StiffnessInto reads beyond the connectivity.
func (t *CST) AppendStiffnessInputs(m *Model, dst []float64) []float64 {
	p1, p2, p3 := m.Nodes[t.N1], m.Nodes[t.N2], m.Nodes[t.N3]
	return append(dst, p1.X, p1.Y, p2.X, p2.Y, p3.X, p3.Y, t.Mat.E, t.Mat.Nu, t.Mat.T, t.Mat.A)
}

// solveUnproven stands in for SolveAssembled: it solves asm, a caller's
// assembly of m, through m's factor cache with no pass token, so the
// cache compares asm's values before it reuses a factor.
func solveUnproven(m *Model, asm *Assembled, ls *LoadSet, opts SolveOpts) (*Solution, error) {
	meth, err := opts.method()
	if err != nil {
		return nil, err
	}
	return solveAssembled(context.Background(), m, asm, 0, ls, meth, opts, m.Factors(), &solveScratch{}, &Solution{})
}

// dropRetained stands in for Model.Touch: it drops m's retained assembly
// and factor cache, so the next solve builds both as a first solve does.
func dropRetained(m *Model) {
	m.retained.mu.Lock()
	m.retained.ws, m.retained.factors = nil, nil
	m.retained.mu.Unlock()
}

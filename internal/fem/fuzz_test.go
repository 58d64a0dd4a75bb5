package fem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
)

// fuzzModel picks the script's subject: a small plate or a small truss.
func fuzzModel(t *testing.T, pick byte) (*Model, *LoadSet) {
	t.Helper()
	if pick%2 == 0 {
		o := RectGridOpts{NX: 3, NY: 2, W: 3, H: 2, Mat: Steel(), ClampLeft: true}
		m, err := RectGrid("fuzz-plate", o)
		if err != nil {
			t.Fatal(err)
		}
		return m, EndLoad("tip", o, 0, -500)
	}
	m, err := CantileverTruss("fuzz-truss", 3, 1000, 800, Steel())
	if err != nil {
		t.Fatal(err)
	}
	return m, TipLoad("tip", 3, 5000)
}

// matOf returns a pointer to e's material.
func matOf(e Element) *Material {
	switch e := e.(type) {
	case *Bar:
		return &e.Mat
	case *CST:
		return &e.Mat
	case *stiffCST:
		return &e.Mat
	}
	panic(fmt.Sprintf("matOf: %T", e))
}

// runRetainedScript interprets script as a model pick followed by
// (op, a, b) triples — edits of every kind the witness table has a row
// for, an unproven caller of the model's factor cache, and a node no
// element uses.  It solves the model once as generated and again after
// each edit (unless the op byte says to let edits pile up), with every
// method of linalg's table, each solve compared bit for bit with a fresh
// deep copy (a solve that fails, a Jacobi run out of budget say, by its
// error), the retained K.Val with the unmemoised oracle scatter of the
// model, and the walk with the two-walk oracle.  It returns the
// differential it solved through.
func runRetainedScript(t *testing.T, script []byte) *differential {
	d := newDifferential()
	if len(script) == 0 {
		return d
	}
	m, ls := fuzzModel(t, script[0])
	original := append([]NodeCoord(nil), m.Nodes...)
	generated := len(m.Elements)
	backends := linalg.Backends()
	for _, backend := range backends {
		d.solve(t, "as generated, "+backend, m, ls, backend)
	}
	for step := 0; 3*step+3 < len(script) && step < 32; step++ {
		op, a, b := script[3*step+1], int(script[3*step+2]), int(script[3*step+3])
		node, other := a%len(m.Nodes), b%len(m.Nodes)
		ei := a % len(m.Elements)
		switch op % 16 {
		case 1:
			delta := 0.125 * float64(1-b%4/2*2) // exactly undone by the opposite step
			if b%2 == 0 {
				m.Nodes[node].X += delta
			} else {
				m.Nodes[node].Y += delta
			}
		case 2:
			switch b % 3 {
			case 0:
				m.Nodes[node].X = -m.Nodes[node].X // +0 becomes -0
			case 1:
				m.Nodes[node].Y = math.NaN()
			default:
				if node < len(original) {
					m.Nodes[node] = original[node]
				}
			}
		case 3:
			mat := matOf(m.Elements[ei])
			field := [4]*float64{&mat.E, &mat.Nu, &mat.T, &mat.A}[b%4]
			if b%8 < 4 {
				*field *= 2
			} else {
				*field /= 2
			}
		case 4:
			if node != other && len(m.Elements) < generated+8 {
				m.Elements = append(m.Elements, &Bar{N1: node, N2: other, Mat: Steel()})
			}
		case 5:
			if len(m.Elements) > generated {
				m.Elements = m.Elements[:len(m.Elements)-1]
			}
		case 6:
			if err := m.FixDOF(a % m.NumDOF()); err != nil {
				t.Fatal(err)
			}
		case 7:
			d.touch(m)
		case 8:
			next := deepCopy(t, m)
			next.AdoptAssembly(m)
			m = next
		case 9:
			// A new object: of the same type, or of another one with the
			// same connectivity and inputs.
			switch e := m.Elements[ei].(type) {
			case *Bar:
				cp := *e
				m.Elements[ei] = &cp
			case *CST:
				cp := *e
				m.Elements[ei] = &cp
				if b%3 == 1 {
					m.Elements[ei] = &stiffCST{CST: cp}
				}
			case *stiffCST:
				cp := e.CST
				m.Elements[ei] = &cp
			}
		case 10:
			m.Nodes[node] = m.Nodes[other] // elements between the two degenerate
		case 11:
			copy(m.Nodes, original)
		case 12:
			// A public assembly through the retained workspace records
			// nothing, and may leave the buffer half filled.
			if ws := m.retained.ws; ws != nil {
				_, _ = ws.Assemble()
			}
		case 13:
			// Element b's material onto element a: with the coordinate
			// ops, equal shapes under different materials and the reverse.
			*matOf(m.Elements[ei]) = *matOf(m.Elements[b%len(m.Elements)])
		case 14:
			// An unproven caller between retained solves: the retained
			// values with entry a scaled by 1, 2 or 1/2, solved through
			// solveUnproven on the same model and factor cache.
			d.unproven(t, fmt.Sprintf("step %d (op 14 %d %d)", step, a, b), m, a, [3]float64{1, 2, 0.5}[b%3], ls)
		case 15:
			// A clamped node no element uses, at (a, b): op 2 can put a
			// NaN on it, which no solve reads.
			if len(m.Nodes) < len(original)+4 {
				if err := m.FixNode(m.AddNode(float64(a), float64(b))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if op&0x10 != 0 {
			continue
		}
		for i := range backends {
			backend := backends[(i+step)%len(backends)]
			d.solve(t, fmt.Sprintf("step %d (op %d %d %d) %s", step, op%16, a, b, backend), m, ls, backend)
		}
	}
	return d
}

// FuzzRetainedSolve searches for an edit sequence after which a solve
// through the retained assembly — symbolic phase kept, numeric phase
// skipped when the input record says nothing moved — differs in any bit
// from solving a fresh deep copy, or a retained K.Val differs from the
// unmemoised oracle scatter.  The seed corpus replays the rows of
// TestStiffnessWitnessCannotLie on the plate (pick 0) and the truss
// (pick 1), two material copies (op 13), unproven callers of the
// model's factor cache between retained solves (op 14), and a NaN on a
// node no element uses (op 15, then op 2).
func FuzzRetainedSolve(f *testing.F) {
	for _, ops := range [][]byte{
		{},                                // as generated
		{1, 5, 0, 1, 5, 2},                // coordinate moved, then moved back exactly
		{0x11, 5, 0, 0x11, 5, 2, 0, 0, 0}, // the same between two solves
		{3, 4, 0, 3, 4, 4},                // Mat.E doubled, then halved
		{3, 4, 1},                         // Mat.Nu
		{3, 4, 2},                         // Mat.T
		{3, 4, 3},                         // Mat.A
		{2, 0, 0, 2, 0, 0},                // +0 to -0 and back
		{2, 11, 1, 0, 0, 0, 2, 11, 2},     // NaN, re-solve, restored
		{9, 6, 0},                         // element replaced by an equal object
		{9, 6, 1, 0, 0, 0, 9, 6, 0},       // … by another type, and back
		{10, 11, 6, 0, 0, 0, 11, 0, 0},    // degenerate, re-solve, exact revert
		{12, 0, 0},                        // public Assemble
		{0x1c, 0, 0, 12, 0, 0},            // public Assemble twice, one solve
		{0x1c, 0, 0, 3, 4, 0},             // public Assemble, then Mat.E doubled, one solve
		{8, 0, 0},                         // adopted by an equal model
		{0x13, 4, 0, 8, 0, 0},             // adopted by a model with another modulus
		{7, 0, 0},                         // touch: the retained state dropped
		{4, 2, 9, 5, 0, 0},                // bar added, dropped
		{6, 9, 0},                         // one more fixed dof
		{3, 4, 1, 13, 6, 4},               // Mat.Nu of one element, copied onto another
		{3, 4, 2, 13, 7, 4, 1, 5, 0},      // Mat.T copied, then a coordinate moved
		{14, 3, 1},                        // an unproven caller's system with one entry doubled
		{14, 3, 0},                        // … with the retained values as they are
		{14, 7, 2, 0x13, 4, 0, 14, 0, 1},  // halved; Mat.E doubled, doubled again, one solve
		// A spare node, then a NaN on it and a re-solve that must skip:
		// 116 is the new node of the plate (12 mod 13) and the truss (8 mod 9).
		{15, 0, 0, 2, 116, 1, 0, 0, 0},
		{15, 5, 5, 0x12, 116, 1, 1, 5, 0}, // … then a used node moved too, one solve
	} {
		f.Add(append([]byte{0}, ops...))
		f.Add(append([]byte{1}, ops...))
	}
	f.Fuzz(func(t *testing.T, script []byte) { runRetainedScript(t, script) })
}

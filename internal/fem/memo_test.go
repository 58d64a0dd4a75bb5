package fem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
)

// oracleScratch is stiffScratch as it was before the CST memo, verbatim:
// one matrix per element order, every element evaluated by its own
// StiffnessInto.  It is kept as the differential reference for the memo.
type oracleScratch struct {
	ke map[int]*linalg.Dense
}

func (sc *oracleScratch) stiffness(m *Model, e Element, nd int) (*linalg.Dense, error) {
	ke := sc.ke[nd]
	if ke == nil {
		if sc.ke == nil {
			sc.ke = map[int]*linalg.Dense{}
		}
		ke = linalg.NewDense(nd, nd)
		sc.ke[nd] = ke
	}
	if err := e.StiffnessInto(m, ke); err != nil {
		return nil, err
	}
	return ke, nil
}

// oracleScatter is Workspace.scatter as it was before the CST memo,
// verbatim but for the input record and the walk along the map: every element's stiffness is
// evaluated, then scattered into val through ws's map.
func oracleScatter(ws *Workspace, val []float64) error {
	var scratch oracleScratch
	s := ws.scat
	for ei, e := range ws.m.Elements {
		nd := ws.ndof[ei]
		ke, err := scratch.stiffness(ws.m, e, nd)
		if err != nil {
			return fmt.Errorf("fem: element %d: %w", ei, err)
		}
		for i := 0; i < nd; i++ {
			row := ke.Row(i)
			base := i * nd
			for j, v := range row {
				if t := s[base+j]; t >= 0 {
					val[t] += v
				}
			}
		}
		s = s[nd*nd:]
	}
	return nil
}

// oracleK is the value array a numeric pass over m wrote before the
// memo: a fresh symbolic phase, then oracleScatter.
func oracleK(m *Model) ([]float64, error) {
	ws, err := NewWorkspace(m)
	if err != nil {
		return nil, err
	}
	val := make([]float64, len(ws.asm.K.Val))
	return val, oracleScatter(ws, val)
}

// memoMatchesOracle assembles m through ws (whose memo may hold entries
// from earlier passes) and demands the oracle's bits, or its error text.
func memoMatchesOracle(t *testing.T, label string, ws *Workspace, m *Model) {
	t.Helper()
	want, wantErr := oracleK(m)
	asm, err := ws.Assemble()
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: err %v, oracle %v", label, err, wantErr)
		}
		return
	}
	if i := firstDiff(asm.K.Val, want); i >= 0 {
		t.Fatalf("%s: K.Val[%d] = %.17g, oracle %.17g", label, i, asm.K.Val[i], want[i])
	}
}

// plateOf generates a clamped plate or fails the test.
func plateOf(t *testing.T, o RectGridOpts) *Model {
	t.Helper()
	o.Mat, o.ClampLeft = Steel(), true
	m, err := RectGrid("plate", o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// roundingTwins is two pairs of translated triangles.  Within a pair
// every key field but one is bitwise equal, and the one left over — c3 in
// the first pair, b2 in the second — differs in its last bit by rounding:
// a key without that field would hand the second triangle the first's
// stiffness.  (x31 and y21 have no such twin: IEEE subtraction is
// antisymmetric, so they equal −c2 and −b3 but for the sign of a zero,
// which the shoelace area cannot see.)
func roundingTwins(t *testing.T) *Model {
	m := NewModel("twins")
	add := func(p1, p2, p3 NodeCoord) {
		n := len(m.Nodes)
		for _, p := range []NodeCoord{p1, p2, p3} {
			m.AddNode(p.X, p.Y)
		}
		if err := m.AddElement(&CST{N1: n, N2: n + 1, N3: n + 2, Mat: Steel()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []float64{0.1, 0.2} {
		add(NodeCoord{s, 0}, NodeCoord{s + 0.3, 0}, NodeCoord{s + 0.7, 1})
	}
	for _, s := range []float64{0.1, 0.2} {
		add(NodeCoord{0, s}, NodeCoord{0, s + 0.7}, NodeCoord{1, s + 0.3})
	}
	for _, n := range []int{0, 6} {
		if err := m.FixNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for pair, field := range []string{"c3", "b2"} {
		var sa, sb cstShape
		m.Elements[2*pair].(*CST).shape(m, &sa)
		m.Elements[2*pair+1].(*CST).shape(m, &sb)
		a, b := reflect.ValueOf(sa), reflect.ValueOf(sb)
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			same := math.Float64bits(a.Field(i).Float()) == math.Float64bits(b.Field(i).Float())
			if same == (name == field) {
				t.Fatalf("twin pair %d: shape field %s equal %v", pair, name, same)
			}
		}
	}
	return m
}

// TestStiffnessMemoMatchesOracle is the differential check on the CST
// memo: on every mesh below, a numeric pass through a workspace — fresh,
// and again after the edit, so the memo carries entries of the previous
// values — writes exactly the oracle's K.Val bits, or fails with exactly
// its error text and element index.
func TestStiffnessMemoMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	truss, err := CantileverTruss("truss", 5, 1000, 800, Steel())
	if err != nil {
		t.Fatal(err)
	}
	unit := RectGridOpts{NX: 40, NY: 24, W: 40, H: 24}
	for _, tc := range []struct {
		name string
		m    *Model
		// edit is applied between the first and the second pass.
		edit func(m *Model)
	}{
		{"40x24 unit plate", plateOf(t, unit), func(m *Model) {
			for _, e := range m.Elements {
				e.(*CST).Mat.E = 70000
			}
		}},
		{"13x7 plate, W 3.3 H 1.7", plateOf(t, RectGridOpts{NX: 13, NY: 7, W: 3.3, H: 1.7}), func(m *Model) {
			m.Nodes[40].X += 0.01
		}},
		{"jittered plate", plateOf(t, RectGridOpts{NX: 20, NY: 9, W: 20, H: 9, Jitter: 0.2, Seed: 29}), func(m *Model) {
			m.Elements[17].(*CST).Mat.T *= 2
		}},
		{"truss", truss, func(m *Model) { m.Elements[3].(*Bar).Mat.E /= 2 }},
		{"plate with bars", func() *Model {
			m := plateOf(t, RectGridOpts{NX: 6, NY: 4, W: 6, H: 4})
			for _, ends := range [][2]int{{7, 20}, {3, 31}, {12, 13}} {
				if err := m.AddElement(&Bar{N1: ends[0], N2: ends[1], Mat: Steel()}); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}(), func(m *Model) { m.Nodes[13].Y += 0.5 }},
		{"node at -0", plateOf(t, RectGridOpts{NX: 6, NY: 4, W: 6, H: 4}), func(m *Model) {
			m.Nodes[GridNodeID(4, 3, 0)].Y = negZero
			m.Nodes[GridNodeID(4, 0, 2)].X = negZero
		}},
		{"rounding twins", roundingTwins(t), func(m *Model) {
			for i := 0; i < 3; i++ {
				m.Nodes[i], m.Nodes[i+3] = m.Nodes[i+3], m.Nodes[i]
			}
		}},
		{"NaN coordinate", plateOf(t, RectGridOpts{NX: 6, NY: 4, W: 6, H: 4}), func(m *Model) {
			m.Nodes[GridNodeID(4, 3, 2)].X = math.NaN()
		}},
		{"equal shapes, another Nu or T", plateOf(t, RectGridOpts{NX: 8, NY: 6, W: 8, H: 6}), func(m *Model) {
			for i, e := range m.Elements {
				c := e.(*CST)
				if i%3 == 0 {
					c.Mat.Nu = 0.25
				}
				if i%5 == 0 {
					c.Mat.T = 20
				}
				if i%7 == 0 {
					c.Mat.A = 1 // not read: a hit on an equal shape is right
				}
			}
		}},
		{"stiffCST among CSTs", plateOf(t, RectGridOpts{NX: 6, NY: 4, W: 6, H: 4}), func(m *Model) {
			for i := 1; i < len(m.Elements); i += 4 {
				m.Elements[i] = &stiffCST{CST: *m.Elements[i].(*CST)}
			}
		}},
		{"degenerate CST", plateOf(t, RectGridOpts{NX: 6, NY: 4, W: 6, H: 4}), func(m *Model) {
			// The top right corner slides onto the line through the last
			// CST's other two nodes, after 47 hits.
			c := m.Elements[47].(*CST)
			p := m.Nodes[c.N1]
			m.Nodes[c.N2] = NodeCoord{X: p.X, Y: p.Y + 1.5}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, err := NewWorkspace(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			memoMatchesOracle(t, "as built", ws, tc.m)
			tc.edit(tc.m)
			memoMatchesOracle(t, "edited", ws, tc.m)
			if fresh, err := NewWorkspace(tc.m); err == nil {
				memoMatchesOracle(t, "edited, fresh workspace", fresh, tc.m)
			}
		})
	}
}

// TestStiffnessMemoDegenerateError pins the degenerate CST's error on
// the memo path: today's element index and message, and nothing stored.
func TestStiffnessMemoDegenerateError(t *testing.T) {
	m := plateOf(t, RectGridOpts{NX: 6, NY: 4, W: 6, H: 4})
	c := m.Elements[47].(*CST)
	p := m.Nodes[c.N1]
	m.Nodes[c.N2] = NodeCoord{X: p.X, Y: p.Y + 1.5}
	ws, err := NewWorkspace(m)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("fem: element 47: %v: degenerate CST %d-%d-%d", ErrModel, c.N1, c.N2, c.N3)
	var bad cstShape
	c.shape(m, &bad)
	for pass := 0; pass < 2; pass++ {
		if _, err := ws.Assemble(); err == nil || err.Error() != want {
			t.Fatalf("pass %d: err = %v, want %s", pass, err, want)
		}
		for i, e := range ws.scratch.cst[:ws.scratch.ncst] {
			if e.shape.same(&bad) {
				t.Fatalf("pass %d: memo entry %d holds the degenerate shape", pass, i)
			}
		}
	}
}

// rectGridAddElement is RectGrid as it was before it allocated its mesh
// up front, verbatim: every node and element appended one at a time,
// each element through AddElement.  It is kept as the reference for
// TestRectGridMatchesAddElement.
func rectGridAddElement(name string, o RectGridOpts) (*Model, error) {
	if o.NX < 1 || o.NY < 1 {
		return nil, fmt.Errorf("%w: grid %dx%d", ErrModel, o.NX, o.NY)
	}
	if o.W <= 0 || o.H <= 0 {
		return nil, fmt.Errorf("%w: grid extent %gx%g", ErrModel, o.W, o.H)
	}
	m := NewModel(name)
	dx, dy := o.W/float64(o.NX), o.H/float64(o.NY)
	rng := rand.New(rand.NewSource(o.Seed))
	id := func(i, j int) int { return i*(o.NY+1) + j }
	for i := 0; i <= o.NX; i++ {
		for j := 0; j <= o.NY; j++ {
			x, y := float64(i)*dx, float64(j)*dy
			if o.Jitter > 0 && i > 0 && i < o.NX && j > 0 && j < o.NY {
				x += (rng.Float64()*2 - 1) * o.Jitter * dx
				y += (rng.Float64()*2 - 1) * o.Jitter * dy
			}
			m.AddNode(x, y)
		}
	}
	for i := 0; i < o.NX; i++ {
		for j := 0; j < o.NY; j++ {
			n00 := id(i, j)
			n10 := id(i+1, j)
			n01 := id(i, j+1)
			n11 := id(i+1, j+1)
			if err := m.AddElement(&CST{N1: n00, N2: n10, N3: n11, Mat: o.Mat}); err != nil {
				return nil, err
			}
			if err := m.AddElement(&CST{N1: n00, N2: n11, N3: n01, Mat: o.Mat}); err != nil {
				return nil, err
			}
		}
	}
	if o.ClampLeft {
		for j := 0; j <= o.NY; j++ {
			if err := m.FixNode(id(0, j)); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// TestRectGridMatchesAddElement pins the preallocating RectGrid to the
// element-at-a-time construction it replaced — nodes, element objects,
// constraint map — and its allocation count to a ceiling that does not
// grow with the grid.
func TestRectGridMatchesAddElement(t *testing.T) {
	for _, o := range []RectGridOpts{
		{NX: 5, NY: 3, W: 5, H: 3, Mat: Steel()},
		{NX: 40, NY: 24, W: 40, H: 24, Mat: Steel(), ClampLeft: true},
		{NX: 13, NY: 7, W: 3.3, H: 1.7, Mat: Material{E: 70000, Nu: 0.33, T: 2, A: 1}, ClampLeft: true},
		{NX: 20, NY: 9, W: 20, H: 9, Mat: Steel(), Jitter: 0.2, Seed: 29},
		{NX: 6, NY: 6, W: 6, H: 6, Mat: Steel(), ClampLeft: true, Jitter: 0.25, Seed: 3},
		{NX: 2, NY: 2, W: 2, H: 2, Mat: Steel(), Jitter: math.NaN(), Seed: 1},
		{NX: 0, NY: 2, W: 2, H: 2},
		{NX: 2, NY: 2, W: -1, H: 2},
	} {
		t.Run(fmt.Sprintf("%dx%d jitter %g clamp %v", o.NX, o.NY, o.Jitter, o.ClampLeft), func(t *testing.T) {
			want, wantErr := rectGridAddElement("g", o)
			got, err := RectGrid("g", o)
			if err != nil || wantErr != nil {
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("err %v, reference %v", err, wantErr)
				}
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("RectGrid differs from the AddElement construction")
			}
		})
	}
	ceiling := 10.0
	for _, n := range [][2]int{{40, 24}, {80, 48}} {
		o := RectGridOpts{NX: n[0], NY: n[1], W: float64(n[0]), H: float64(n[1]), Mat: Steel(), ClampLeft: true}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := RectGrid("g", o); err != nil {
				t.Fatal(err)
			}
		}); allocs > ceiling {
			t.Errorf("RectGrid(%d, %d) allocates %.0f times, ceiling %.0f", n[0], n[1], allocs, ceiling)
		}
	}
}

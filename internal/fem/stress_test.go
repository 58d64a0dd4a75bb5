package fem

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// cstStressDense is the stress recovery CST.Stress used before it moved
// into locals: B and D built as Dense matrices, strain and stress as two
// Dense.MulVec products.  It is kept as the differential reference for
// CST.AppendStress.
func cstStressDense(t *CST, m *Model, u linalg.Vector) ([]float64, error) {
	var sh cstShape
	t.shape(m, &sh)
	var ba [3][6]float64
	if _, ok := sh.bMatrix(&ba); !ok {
		return nil, t.degenerate()
	}
	da := sh.dMatrix()
	b, d := linalg.NewDense(3, 6), linalg.NewDense(3, 3)
	for i := range 3 {
		for j, v := range ba[i] {
			b.Set(i, j, v)
		}
		for j, v := range da[i] {
			d.Set(i, j, v)
		}
	}
	ue := linalg.Vector{
		u[DOF(t.N1, 0)], u[DOF(t.N1, 1)],
		u[DOF(t.N2, 0)], u[DOF(t.N2, 1)],
		u[DOF(t.N3, 0)], u[DOF(t.N3, 1)],
	}
	strain := b.MulVec(ue, nil, nil)
	return d.MulVec(strain, nil, nil), nil
}

// cstStressLoop is CST.AppendStress as it was before its rows advanced
// together: each row one range loop, run one after another.  It is kept
// as the kernel's oracle beside the Dense chain.
func cstStressLoop(t *CST, m *Model, u linalg.Vector, dst []float64) ([]float64, error) {
	var sh cstShape
	t.shape(m, &sh)
	var b [3][6]float64
	if _, ok := sh.bMatrix(&b); !ok {
		return dst, t.degenerate()
	}
	ue := [6]float64{
		u[DOF(t.N1, 0)], u[DOF(t.N1, 1)],
		u[DOF(t.N2, 0)], u[DOF(t.N2, 1)],
		u[DOF(t.N3, 0)], u[DOF(t.N3, 1)],
	}
	var strain [3]float64
	for i := range b {
		var s float64
		for j, a := range b[i] {
			s += a * ue[j]
		}
		strain[i] = s
	}
	d := sh.dMatrix()
	for i := range d {
		var s float64
		for j, a := range d[i] {
			s += a * strain[j]
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// cstStressArrays is CST.AppendStress as it was before B and D moved
// into scalars: B filled into a [3][6] by bMatrix, D returned as a
// [3][3] by dMatrix, the three rows advancing together.  It is kept as
// the kernel's oracle beside the Dense chain and the row-after-row loop.
func cstStressArrays(t *CST, m *Model, u linalg.Vector, dst []float64) ([]float64, error) {
	var sh cstShape
	t.shape(m, &sh)
	var b [3][6]float64
	if _, ok := sh.bMatrix(&b); !ok {
		return dst, t.degenerate()
	}
	u0, u1 := u[DOF(t.N1, 0)], u[DOF(t.N1, 1)]
	u2, u3 := u[DOF(t.N2, 0)], u[DOF(t.N2, 1)]
	u4, u5 := u[DOF(t.N3, 0)], u[DOF(t.N3, 1)]
	var e0, e1, e2 float64
	e0, e1, e2 = e0+b[0][0]*u0, e1+b[1][0]*u0, e2+b[2][0]*u0
	e0, e1, e2 = e0+b[0][1]*u1, e1+b[1][1]*u1, e2+b[2][1]*u1
	e0, e1, e2 = e0+b[0][2]*u2, e1+b[1][2]*u2, e2+b[2][2]*u2
	e0, e1, e2 = e0+b[0][3]*u3, e1+b[1][3]*u3, e2+b[2][3]*u3
	e0, e1, e2 = e0+b[0][4]*u4, e1+b[1][4]*u4, e2+b[2][4]*u4
	e0, e1, e2 = e0+b[0][5]*u5, e1+b[1][5]*u5, e2+b[2][5]*u5
	d := sh.dMatrix()
	var s0, s1, s2 float64
	s0, s1, s2 = s0+d[0][0]*e0, s1+d[1][0]*e0, s2+d[2][0]*e0
	s0, s1, s2 = s0+d[0][1]*e1, s1+d[1][1]*e1, s2+d[2][1]*e1
	s0, s1, s2 = s0+d[0][2]*e2, s1+d[1][2]*e2, s2+d[2][2]*e2
	return append(dst, s0, s1, s2), nil
}

// cstStressRefs runs the three CST references at u: the Dense chain, the
// row-after-row loop and the array kernel.  They fail together, on a
// degenerate triangle, with the same error.
func cstStressRefs(t *CST, m *Model, u linalg.Vector) ([][]float64, error) {
	dense, err := cstStressDense(t, m, u)
	if err != nil {
		return nil, err
	}
	loop, err := cstStressLoop(t, m, u, nil)
	if err != nil {
		return nil, err
	}
	arrays, err := cstStressArrays(t, m, u, nil)
	if err != nil {
		return nil, err
	}
	return [][]float64{dense, loop, arrays}, nil
}

// barStressRef is Bar.Stress as it was before AppendStress.
func barStressRef(b *Bar, m *Model, u linalg.Vector) ([]float64, error) {
	l, c, s, err := b.geometry(m)
	if err != nil {
		return nil, err
	}
	u1x, u1y := u[DOF(b.N1, 0)], u[DOF(b.N1, 1)]
	u2x, u2y := u[DOF(b.N2, 0)], u[DOF(b.N2, 1)]
	elong := (u2x-u1x)*c + (u2y-u1y)*s
	return []float64{b.Mat.E * elong / l}, nil
}

// largePlate is the benchmark's 40×24 plate (2050 dof, 1920 CSTs) and
// its end load.
func largePlate(t testing.TB) (*Model, *LoadSet) {
	t.Helper()
	o := RectGridOpts{NX: 40, NY: 24, W: 40, H: 24, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("large", o)
	if err != nil {
		t.Fatal(err)
	}
	return m, EndLoad("tip", o, 0, -1000)
}

// sameBits reports whether a and b have the same bit pattern, so −0
// differs from +0.  Any two NaNs are the same: which operand's payload
// an addition of two NaNs keeps is the instruction's operand order, and
// Go leaves that order to the compiler.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specialDisplacements returns u with its entries replaced, in a cycle
// of seven, by −0, +Inf, −Inf and NaN, so each element meets them at
// every local position, times B's structural zeros included.
func specialDisplacements(u linalg.Vector) linalg.Vector {
	out := u.Clone()
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for d := range out {
		if k := d % 7; k < len(specials) {
			out[d] = specials[k]
		}
	}
	return out
}

// filled returns a vector of n copies of v.
func filled(n int, v float64) linalg.Vector {
	out := linalg.NewVector(n)
	for d := range out {
		out[d] = v
	}
	return out
}

// TestStressesMatchDenseReference is the differential check on the
// allocation-free stress recovery: on the 40×24 plate, a jittered plate
// and a truss, at their solutions, at displacements carrying −0, ±Inf
// and NaN, and at finite displacements whose strains overflow, Stresses
// (rows carved from one backing array) and AppendStress equal the Dense
// chain, the row-after-row loop and the array kernel they replaced per
// element, bit for bit.
//
// The overflow case is the one that sees a skipped product with one of
// D's zeros: a strain that overflows to ±Inf while the others stay
// finite makes 0·Inf = NaN in every stress row.  A skipped product with
// one of B's zeros, 0·u, cannot be seen: it changes a sum only when u is
// ±Inf or NaN, and such a u reaches every strain (through B's non-zeros,
// or as 0·Inf) and then every stress (through D's zeros), all of them
// NaN either way.
func TestStressesMatchDenseReference(t *testing.T) {
	plate, plateLoad := largePlate(t)
	jo := RectGridOpts{NX: 40, NY: 24, W: 40, H: 24, Mat: Steel(), ClampLeft: true, Jitter: 0.25, Seed: 17}
	jittered, err := RectGrid("jittered", jo)
	if err != nil {
		t.Fatal(err)
	}
	truss, err := CantileverTruss("truss", 6, 1000, 800, Steel())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m       *Model
		ls      *LoadSet
		backend string
	}{
		{plate, plateLoad, linalg.BackendCholeskyEnv},
		{jittered, EndLoad("tip", jo, 0, -1000), linalg.BackendCholeskyEnv},
		{truss, TipLoad("tip", 6, 5000), linalg.BackendCholesky},
	} {
		sol, err := Solve(context.Background(), tc.m, tc.ls, SolveOpts{Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		n := len(sol.U)
		for _, u := range []struct {
			name string
			u    linalg.Vector
		}{
			{"solution", sol.U},
			{"all −0", filled(n, math.Copysign(0, -1))},
			{"−0 ±Inf NaN", specialDisplacements(sol.U)},
			{"overflowing strains", filled(n, math.MaxFloat64)},
		} {
			checkStresses(t, tc.m.Name+" at "+u.name, tc.m, u.u)
		}
	}
}

// checkStresses compares Stresses, StressesInto writing over rows of
// NaNs, and each element's AppendStress at u with the references, bit for
// bit.
func checkStresses(t *testing.T, name string, m *Model, u linalg.Vector) {
	t.Helper()
	got, err := Stresses(m, &Solution{U: u})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Elements) {
		t.Fatalf("%s: %d stress rows for %d elements", name, len(got), len(m.Elements))
	}
	rows := make([][]float64, len(m.Elements))
	for i := range rows {
		rows[i] = []float64{math.NaN(), math.NaN(), math.NaN()}
	}
	into, err := StressesInto(m, &Solution{U: u}, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range m.Elements {
		var refs [][]float64
		switch e := e.(type) {
		case *CST:
			var err error
			if refs, err = cstStressRefs(e, m, u); err != nil {
				t.Fatal(err)
			}
		case *Bar:
			want, err := barStressRef(e, m, u)
			if err != nil {
				t.Fatal(err)
			}
			refs = [][]float64{want}
		default:
			t.Fatalf("element %d is %T", i, e)
		}
		// The single-element form goes through the same code.
		one, err := e.AppendStress(m, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each row owns a three-wide slot of the backing array, so an
		// append to one cannot reach the next.
		if n := len(refs[0]); len(got[i]) != n || cap(got[i]) != 3 || len(one) != n {
			t.Fatalf("%s element %d: row len %d cap %d, AppendStress len %d, want len %d cap 3", name, i, len(got[i]), cap(got[i]), len(one), n)
		}
		if len(into[i]) != len(refs[0]) {
			t.Fatalf("%s element %d: StressesInto row len %d, want %d", name, i, len(into[i]), len(refs[0]))
		}
		for _, want := range refs {
			for c := range want {
				if !sameBits(got[i][c], want[c]) || !sameBits(into[i][c], want[c]) || !sameBits(one[c], want[c]) {
					t.Fatalf("%s element %d component %d: Stresses %v, StressesInto %v, AppendStress %v, reference %v", name, i, c, got[i][c], into[i][c], one[c], want[c])
				}
			}
		}
	}
}

// TestStressesRefuseASolutionOfAnotherSize: Stresses and Reactions
// given a solution with another dof count answer ErrModel instead of
// indexing past it.
func TestStressesRefuseASolutionOfAnotherSize(t *testing.T) {
	m, _ := largePlate(t)
	sol := &Solution{U: linalg.NewVector(40)}
	want := "solution has 40 dofs, model has 2050 — solve again"
	if _, err := Stresses(m, sol); !errors.Is(err, ErrModel) || !strings.Contains(err.Error(), want) {
		t.Errorf("Stresses: %v, want %q", err, want)
	}
	if _, err := Reactions(m, sol); !errors.Is(err, ErrModel) || !strings.Contains(err.Error(), want) {
		t.Errorf("Reactions: %v, want %q", err, want)
	}
}

// fuzzDisplacements is the table FuzzCSTStress draws a triangle's six
// displacements from, four bits each: signed zeros, ordinary values,
// ±Inf, NaN, subnormals, ±MaxFloat64, and last the fuzzed raw value.
var fuzzDisplacements = [16]float64{
	0, math.Copysign(0, -1), 1, -2.5, 1e-3, 123456.789,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -2.5e-309,
	math.MaxFloat64, -math.MaxFloat64, 1e300, 0.3,
	// [15] is replaced by the fuzzed value.
}

// FuzzCSTStress searches corners, material and displacements for an
// input on which CST.AppendStress, StressesInto and the three references
// part ways:
// in any stress bit (NaNs as a class, see sameBits), or in the error of
// a degenerate triangle.  sel picks the six displacements from
// fuzzDisplacements, four bits each, entry 15 being v.  T is read by no
// stress; it is fuzzed so that nothing comes to depend on it.
func FuzzCSTStress(f *testing.F) {
	// Nibble d of sel picks u[d]: the first displacement is the last digit.
	const (
		ordinary = 0xEF4321 // 1, −2.5, 1e-3, 123456.789, v, 0.3
		zeros    = 0x011001 // −0 and +0
		specials = 0x9876F1 // −0, v, +Inf, −Inf, NaN, subnormal
		tiny     = 0xA9A9A9 // subnormals
		overflow = 0xBBBBBB // MaxFloat64 throughout
		small    = 0x333333 // 1e-3 throughout
	)
	steelE, steelNu := 200000.0, 0.3
	// A right triangle (inv = 1), and an oblique one, whose inv rounds.
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, steelE, steelNu, 10.0, uint32(ordinary), 7.0)
	f.Add(0.13, -0.7, 3.3, 0.25, 1.1, 2.9, steelE, steelNu, 10.0, uint32(ordinary), -0.37)
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, steelE, steelNu, 10.0, uint32(zeros), math.Copysign(0, -1))
	f.Add(0.13, -0.7, 3.3, 0.25, 1.1, 2.9, steelE, steelNu, 10.0, uint32(specials), math.Copysign(0, -1))
	f.Add(0.13, -0.7, 3.3, 0.25, 1.1, 2.9, steelE, steelNu, 10.0, uint32(tiny), 0.0)
	// Strains overflow to ±Inf, so every one of D's zero products is NaN.
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, steelE, steelNu, 10.0, uint32(overflow), 0.0)
	f.Add(0.13, -0.7, 3.3, 0.25, 1.1, 2.9, steelE, steelNu, 10.0, uint32(overflow), 0.0)
	// f·(1−ν) overflows where f·((1−ν)/2) would not.
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.6*math.MaxFloat64, -0.5, 10.0, uint32(small), 0.0)
	// A subnormal modulus: D's entries round at every step.
	f.Add(0.13, -0.7, 3.3, 0.25, 1.1, 2.9, 3e-310, 0.3, 10.0, uint32(ordinary), 1e-300)
	// Degenerate: collinear corners, and a repeated corner.
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0, steelE, steelNu, 10.0, uint32(ordinary), 0.0)
	f.Add(0.5, 0.25, 3.0, -1.0, 0.5, 0.25, steelE, steelNu, 10.0, uint32(specials), 0.0)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, e, nu, th float64, sel uint32, v float64) {
		m := NewModel("fuzz")
		m.AddNode(x1, y1)
		m.AddNode(x2, y2)
		m.AddNode(x3, y3)
		c := &CST{N1: 0, N2: 1, N3: 2, Mat: Material{E: e, Nu: nu, T: th}}
		if err := m.AddElement(c); err != nil {
			t.Fatal(err)
		}
		table := fuzzDisplacements
		table[15] = v
		u := make(linalg.Vector, 6)
		for d := range u {
			u[d] = table[sel>>(4*d)&15]
		}
		refs, refErr := cstStressRefs(c, m, u)
		got, err := c.AppendStress(m, u, nil)
		rows, intoErr := StressesInto(m, &Solution{U: u}, nil)
		if refErr != nil || err != nil || intoErr != nil {
			if refErr == nil || err == nil || err.Error() != refErr.Error() || !errors.Is(err, ErrModel) {
				t.Fatalf("AppendStress error %v, references' %v", err, refErr)
			}
			if intoErr == nil || intoErr.Error() != "fem: stress of element 0: "+refErr.Error() || !errors.Is(intoErr, ErrModel) {
				t.Fatalf("StressesInto error %v, references' %v", intoErr, refErr)
			}
			return
		}
		for _, want := range refs {
			if len(got) != len(want) || len(rows[0]) != len(want) {
				t.Fatalf("AppendStress %v, StressesInto %v, reference %v", got, rows[0], want)
			}
			for i := range want {
				if !sameBits(got[i], want[i]) || !sameBits(rows[0][i], want[i]) {
					t.Fatalf("component %d: AppendStress %v, StressesInto %v, reference %v (u %v)", i, got, rows[0], want, u)
				}
			}
		}
	})
}

// TestStressesIntoWritesOverItsRows pins StressesInto's recycling on a
// plate stiffened by a bar: rows of the element count are written over in
// place, every component of them, so NaN-filled rows give Stresses' bits;
// a row too short for its element is replaced alone; and rows of another
// count are ignored.
func TestStressesIntoWritesOverItsRows(t *testing.T) {
	m := mixedModel(t)
	_, ls := cachePlate(t)
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Stresses(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, got [][]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range want {
			if j := firstDiff(got[i], want[i]); j >= 0 {
				t.Fatalf("%s: row %d differs from Stresses at component %d", label, i, j)
			}
		}
	}
	nan := func(n, width int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{math.NaN(), math.NaN(), math.NaN()}[:width]
		}
		return rows
	}
	dst := nan(len(m.Elements), 3)
	first := &dst[0][0]
	got, err := StressesInto(m, sol, dst)
	same("recycled rows", got)
	if err != nil || &got[0] != &dst[0] || &got[0][0] != first {
		t.Fatalf("recycled rows: err %v, or the rows were not written in place", err)
	}
	short := nan(len(m.Elements), 1)
	short[len(short)-1] = short[len(short)-1][:1:1] // the bar's row fits; every CST's has spare room
	short[0] = short[0][:0:0]                       // a CST's row with no room at all
	got, err = StressesInto(m, sol, short)
	same("a row too short", got)
	if err != nil {
		t.Fatal(err)
	}
	got, err = StressesInto(m, sol, nan(len(m.Elements)-1, 3))
	same("rows of another count", got)
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressesAllocations holds the stress recovery's allocation
// ceiling on the 40×24 plate: Stresses makes the row headers and the one
// backing array the rows are carved from, StressesInto over the rows of
// the previous recovery makes nothing, and AppendStress into spare
// capacity makes nothing.
func TestStressesAllocations(t *testing.T) {
	m, ls := largePlate(t)
	sol, err := Solve(context.Background(), m, ls, SolveOpts{Backend: linalg.BackendCholeskyEnv})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Stresses(m, sol); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("Stresses: %v allocations, want 2", n)
	}
	rows, err := Stresses(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if rows, err = StressesInto(m, sol, rows); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("StressesInto over the previous rows: %v allocations, want 0", n)
	}
	e, dst := m.Elements[0], make([]float64, 0, 3)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = e.AppendStress(m, sol.U, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendStress into spare capacity: %v allocations, want 0", n)
	}
}

// BenchmarkStresses is the in-process twin of the stresses half of the
// benchmark's resolve_large job: fem.Stresses over the 40×24 plate at its
// solution.  "jittered" moves every interior node, so no two triangles
// share a shape.
func BenchmarkStresses(b *testing.B) {
	for _, tc := range []struct {
		name   string
		jitter float64
	}{{"plate", 0}, {"jittered", 0.2}} {
		b.Run(tc.name, func(b *testing.B) {
			o := RectGridOpts{NX: 40, NY: 24, W: 40, H: 24, Mat: Steel(), ClampLeft: true, Jitter: tc.jitter, Seed: 29}
			m, err := RectGrid("bench", o)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := Solve(context.Background(), m, EndLoad("tip", o, 0, -1000), SolveOpts{Backend: linalg.BackendCholeskyEnv})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Stresses(m, sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

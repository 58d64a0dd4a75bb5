package fem

import (
	"context"
	"math"
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
	b := linalg.DenseFromRows([][]float64{ba[0][:], ba[1][:], ba[2][:]})
	d := linalg.DenseFromRows([][]float64{da[0][:], da[1][:], da[2][:]})
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
// chain and the row-after-row loop they replaced per element, bit for
// bit.
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

// checkStresses compares Stresses and each element's AppendStress at u
// with the references, bit for bit.
func checkStresses(t *testing.T, name string, m *Model, u linalg.Vector) {
	t.Helper()
	got, err := Stresses(m, &Solution{U: u})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Elements) {
		t.Fatalf("%s: %d stress rows for %d elements", name, len(got), len(m.Elements))
	}
	for i, e := range m.Elements {
		var refs [][]float64
		switch e := e.(type) {
		case *CST:
			dense, err := cstStressDense(e, m, u)
			if err != nil {
				t.Fatal(err)
			}
			loop, err := cstStressLoop(e, m, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			refs = [][]float64{dense, loop}
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
		if n := len(refs[0]); len(got[i]) != n || cap(got[i]) != n || len(one) != n {
			t.Fatalf("%s element %d: row len %d cap %d, AppendStress len %d, want %d", name, i, len(got[i]), cap(got[i]), len(one), n)
		}
		for _, want := range refs {
			for c := range want {
				if !sameBits(got[i][c], want[c]) || !sameBits(one[c], want[c]) {
					t.Fatalf("%s element %d component %d: Stresses %v, AppendStress %v, reference %v", name, i, c, got[i][c], one[c], want[c])
				}
			}
		}
	}
}

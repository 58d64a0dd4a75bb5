package fem

import (
	"context"
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

// TestStressesMatchDenseReference is the differential check on the
// allocation-free stress recovery: on the 40×24 plate and a truss,
// Stresses (rows carved from one backing array) equals the Dense chain
// per element, bit for bit.
func TestStressesMatchDenseReference(t *testing.T) {
	plate, plateLoad := largePlate(t)
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
		{truss, TipLoad("tip", 6, 5000), linalg.BackendCholesky},
	} {
		sol, err := Solve(context.Background(), tc.m, tc.ls, SolveOpts{Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Stresses(tc.m, sol)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.m.Elements) {
			t.Fatalf("%s: %d stress rows for %d elements", tc.m.Name, len(got), len(tc.m.Elements))
		}
		for i, e := range tc.m.Elements {
			var want []float64
			switch e := e.(type) {
			case *CST:
				want, err = cstStressDense(e, tc.m, sol.U)
			case *Bar:
				want, err = barStressRef(e, tc.m, sol.U)
			default:
				t.Fatalf("element %d is %T", i, e)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got[i]) != len(want) || cap(got[i]) != len(want) {
				t.Fatalf("%s element %d: row len %d cap %d, want %d", tc.m.Name, i, len(got[i]), cap(got[i]), len(want))
			}
			for c := range want {
				if got[i][c] != want[c] {
					t.Fatalf("%s element %d component %d: %.17g vs reference %.17g", tc.m.Name, i, c, got[i][c], want[c])
				}
			}
			// The single-element form goes through the same code.
			one, err := e.AppendStress(tc.m, sol.U, nil)
			if err != nil {
				t.Fatal(err)
			}
			for c := range want {
				if one[c] != want[c] {
					t.Fatalf("%s element %d Stress component %d: %.17g vs reference %.17g", tc.m.Name, i, c, one[c], want[c])
				}
			}
		}
	}
}

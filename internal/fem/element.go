package fem

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Bar is a two-node axial (truss) element in the plane.
type Bar struct {
	// N1, N2 are the end node indices.
	N1, N2 int
	// Mat supplies E and A.
	Mat Material
}

// Kind returns "bar".
func (b *Bar) Kind() string { return "bar" }

// AppendNodes appends the element connectivity to dst.
func (b *Bar) AppendNodes(dst []int) []int { return append(dst, b.N1, b.N2) }

// geometry returns length and direction cosines.
func (b *Bar) geometry(m *Model) (l, c, s float64, err error) {
	p1, p2 := m.Nodes[b.N1], m.Nodes[b.N2]
	dx, dy := p2.X-p1.X, p2.Y-p1.Y
	l = math.Hypot(dx, dy)
	if l == 0 {
		return 0, 0, 0, fmt.Errorf("%w: zero-length bar %d-%d", ErrModel, b.N1, b.N2)
	}
	return l, dx / l, dy / l, nil
}

// StiffnessInto writes the 4×4 global-coordinate bar stiffness
// k = (EA/L)·[cc cs; cs ss] pattern into a caller-owned matrix,
// allocating nothing — the assembly workspace's numeric phase calls it
// once per element per re-assembly.
func (b *Bar) StiffnessInto(m *Model, ke *linalg.Dense) error {
	if ke.Rows != 4 || ke.Cols != 4 {
		return fmt.Errorf("%w: bar stiffness into %dx%d", linalg.ErrDimension, ke.Rows, ke.Cols)
	}
	l, c, s, err := b.geometry(m)
	if err != nil {
		return err
	}
	k := b.Mat.E * b.Mat.A / l
	cc, ss, cs := c*c, s*s, c*s
	rows := [4][4]float64{
		{k * cc, k * cs, -k * cc, -k * cs},
		{k * cs, k * ss, -k * cs, -k * ss},
		{-k * cc, -k * cs, k * cc, k * cs},
		{-k * cs, -k * ss, k * cs, k * ss},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			ke.Set(i, j, rows[i][j])
		}
	}
	return nil
}

// AppendStiffnessInputs appends the end-node coordinates and the
// material: everything StiffnessInto reads beyond the connectivity.
func (b *Bar) AppendStiffnessInputs(m *Model, dst []float64) []float64 {
	p1, p2 := m.Nodes[b.N1], m.Nodes[b.N2]
	return append(dst, p1.X, p1.Y, p2.X, p2.Y, b.Mat.E, b.Mat.Nu, b.Mat.T, b.Mat.A)
}

// AppendStress appends the single axial stress component (positive in
// tension) to dst.
func (b *Bar) AppendStress(m *Model, u linalg.Vector, dst []float64) ([]float64, error) {
	l, c, s, err := b.geometry(m)
	if err != nil {
		return dst, err
	}
	u1x, u1y := u[DOF(b.N1, 0)], u[DOF(b.N1, 1)]
	u2x, u2y := u[DOF(b.N2, 0)], u[DOF(b.N2, 1)]
	elong := (u2x-u1x)*c + (u2y-u1y)*s
	return append(dst, b.Mat.E*elong/l), nil
}

// CST is the three-node constant strain triangle in plane stress.
type CST struct {
	// N1, N2, N3 are the corner node indices, counterclockwise.
	N1, N2, N3 int
	// Mat supplies E, Nu, and thickness T.
	Mat Material
}

// Kind returns "cst".
func (t *CST) Kind() string { return "cst" }

// AppendNodes appends the element connectivity to dst.
func (t *CST) AppendNodes(dst []int) []int { return append(dst, t.N1, t.N2, t.N3) }

// bMatrix computes the 3×6 strain-displacement matrix and twice the
// signed element area, in locals — shared by stiffness and stress
// recovery, so neither allocates.
func (t *CST) bMatrix(m *Model) (b [3][6]float64, a2 float64, err error) {
	p1, p2, p3 := m.Nodes[t.N1], m.Nodes[t.N2], m.Nodes[t.N3]
	// Signed area via the shoelace formula.
	a2 = (p2.X-p1.X)*(p3.Y-p1.Y) - (p3.X-p1.X)*(p2.Y-p1.Y)
	if a2 == 0 {
		return b, 0, fmt.Errorf("%w: degenerate CST %d-%d-%d", ErrModel, t.N1, t.N2, t.N3)
	}
	b1, b2, b3 := p2.Y-p3.Y, p3.Y-p1.Y, p1.Y-p2.Y
	c1, c2, c3 := p3.X-p2.X, p1.X-p3.X, p2.X-p1.X
	inv := 1 / a2
	b = [3][6]float64{
		{b1 * inv, 0, b2 * inv, 0, b3 * inv, 0},
		{0, c1 * inv, 0, c2 * inv, 0, c3 * inv},
		{c1 * inv, b1 * inv, c2 * inv, b2 * inv, c3 * inv, b3 * inv},
	}
	return b, a2, nil
}

// dMatrix returns the plane stress constitutive matrix.
func (t *CST) dMatrix() [3][3]float64 {
	e, nu := t.Mat.E, t.Mat.Nu
	f := e / (1 - nu*nu)
	return [3][3]float64{
		{f, f * nu, 0},
		{f * nu, f, 0},
		{0, 0, f * (1 - nu) / 2},
	}
}

// StiffnessInto writes the CST stiffness k = t·|A|·BᵀDB into a
// caller-owned 6×6 matrix using fixed-size local arrays, allocating
// nothing.  The accumulation order matches the Dense.Mul chain the dense
// path historically used, so both paths produce bit-identical entries.
func (t *CST) StiffnessInto(m *Model, ke *linalg.Dense) error {
	if ke.Rows != 6 || ke.Cols != 6 {
		return fmt.Errorf("%w: CST stiffness into %dx%d", linalg.ErrDimension, ke.Rows, ke.Cols)
	}
	b, a2, err := t.bMatrix(m)
	if err != nil {
		return err
	}
	area := a2 / 2
	if area < 0 {
		area = -area
	}
	d := t.dMatrix()
	// m1 = Bᵀ·D, then ke = (m1·B)·scale, both accumulated in Dense.Mul's
	// i,k,j order with its zero skip.
	var m1 [6][3]float64
	for i := 0; i < 6; i++ {
		for k := 0; k < 3; k++ {
			a := b[k][i]
			if a == 0 {
				continue
			}
			for j := 0; j < 3; j++ {
				m1[i][j] += a * d[k][j]
			}
		}
	}
	scale := t.Mat.T * area
	for i := 0; i < 6; i++ {
		var row [6]float64
		for k := 0; k < 3; k++ {
			a := m1[i][k]
			if a == 0 {
				continue
			}
			for j := 0; j < 6; j++ {
				row[j] += a * b[k][j]
			}
		}
		for j := 0; j < 6; j++ {
			ke.Set(i, j, row[j]*scale)
		}
	}
	return nil
}

// AppendStiffnessInputs appends the corner coordinates and the
// material: everything StiffnessInto reads beyond the connectivity.
func (t *CST) AppendStiffnessInputs(m *Model, dst []float64) []float64 {
	p1, p2, p3 := m.Nodes[t.N1], m.Nodes[t.N2], m.Nodes[t.N3]
	return append(dst, p1.X, p1.Y, p2.X, p2.Y, p3.X, p3.Y, t.Mat.E, t.Mat.Nu, t.Mat.T, t.Mat.A)
}

// AppendStress appends the element stress components σ = D·(B·u_e) =
// (σx, σy, τxy), constant over the triangle, to dst, computed in locals.
// Each row accumulates in Dense.MulVec's order (every column, zeros
// included), so the result is bit-identical to the Dense chain kept as
// the reference in stress_test.go.
func (t *CST) AppendStress(m *Model, u linalg.Vector, dst []float64) ([]float64, error) {
	b, _, err := t.bMatrix(m)
	if err != nil {
		return dst, err
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
	d := t.dMatrix()
	for i := range d {
		var s float64
		for j, a := range d[i] {
			s += a * strain[j]
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// ElementDOFs returns the global dof indices of an element in local
// order.
func ElementDOFs(e Element) []int {
	ns := e.AppendNodes(nil)
	out := make([]int, 0, DOFPerNode*len(ns))
	for _, n := range ns {
		out = append(out, DOF(n, 0), DOF(n, 1))
	}
	return out
}

// VonMises returns the von Mises equivalent stress for a plane stress
// state (σx, σy, τxy).
func VonMises(s []float64) float64 {
	if len(s) == 1 {
		return math.Abs(s[0]) // bar: axial only
	}
	sx, sy, txy := s[0], s[1], s[2]
	return math.Sqrt(sx*sx - sx*sy + sy*sy + 3*txy*txy)
}

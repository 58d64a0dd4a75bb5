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
	if err := b.unusable(); err != nil {
		return err
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

// unusable is the error of a bar whose material cannot give a stiffness
// that is positive definite along its axis — EA/L needs E > 0 and A > 0
// — or nil.  A NaN passes here and fails the factorisation's pivot test.
func (b *Bar) unusable() error {
	switch {
	case b.Mat.E <= 0:
		return fmt.Errorf("%w: bar %d-%d has modulus E = %g; its stiffness needs E > 0", ErrModel, b.N1, b.N2, b.Mat.E)
	case b.Mat.A <= 0:
		return fmt.Errorf("%w: bar %d-%d has area A = %g; its stiffness needs A > 0", ErrModel, b.N1, b.N2, b.Mat.A)
	}
	return nil
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

// cstShape is everything a CST's stiffness and strain-displacement
// matrix read: the eight corner-coordinate differences and the material
// fields E, Nu and T.  Two CSTs with bitwise-equal shapes have
// bitwise-equal stiffnesses, because the shape is the whole argument of
// the numeric work — which is what lets stiffScratch reuse one.
type cstShape struct {
	// b1 b2 b3, c1 c2 c3 are the B-matrix differences; x31 = p3.X−p1.X
	// and y21 = p2.Y−p1.Y complete the shoelace area.  x31 is not
	// derived from c2: the two differ in the sign of a zero.
	b1, b2, b3, c1, c2, c3, x31, y21 float64
	e, nu, t                         float64
}

// shape reads t's corners and material into s.
func (t *CST) shape(m *Model, s *cstShape) {
	p1, p2, p3 := m.Nodes[t.N1], m.Nodes[t.N2], m.Nodes[t.N3]
	// Field by field: a composite literal would be built and then copied.
	s.b1, s.b2, s.b3 = p2.Y-p3.Y, p3.Y-p1.Y, p1.Y-p2.Y
	s.c1, s.c2, s.c3 = p3.X-p2.X, p1.X-p3.X, p2.X-p1.X
	s.x31, s.y21 = p3.X-p1.X, p2.Y-p1.Y
	s.e, s.nu, s.t = t.Mat.E, t.Mat.Nu, t.Mat.T
}

// same compares two shapes by bit pattern, field by field, so -0
// differs from +0 and a NaN equals itself.
func (s *cstShape) same(o *cstShape) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return eq(s.b1, o.b1) && eq(s.b2, o.b2) && eq(s.b3, o.b3) &&
		eq(s.c1, o.c1) && eq(s.c2, o.c2) && eq(s.c3, o.c3) &&
		eq(s.x31, o.x31) && eq(s.y21, o.y21) &&
		eq(s.e, o.e) && eq(s.nu, o.nu) && eq(s.t, o.t)
}

// degenerate is the error of a CST whose corners span no area.
func (t *CST) degenerate() error {
	return fmt.Errorf("%w: degenerate CST %d-%d-%d", ErrModel, t.N1, t.N2, t.N3)
}

// unusable is the error of a CST whose material cannot give a
// positive-definite stiffness, or nil: plane-stress D is positive
// definite exactly when E > 0 and −1 < ν < 1, and the thickness T scales
// it.  A NaN passes here and fails the factorisation's pivot test.
func (t *CST) unusable() error {
	switch mt := t.Mat; {
	case mt.E <= 0:
		return fmt.Errorf("%w: CST %d-%d-%d has modulus E = %g; its stiffness needs E > 0", ErrModel, t.N1, t.N2, t.N3, mt.E)
	case mt.Nu <= -1 || mt.Nu >= 1:
		return fmt.Errorf("%w: CST %d-%d-%d has Poisson's ratio Nu = %g; its stiffness needs -1 < Nu < 1", ErrModel, t.N1, t.N2, t.N3, mt.Nu)
	case mt.T <= 0:
		return fmt.Errorf("%w: CST %d-%d-%d has thickness T = %g; its stiffness needs T > 0", ErrModel, t.N1, t.N2, t.N3, mt.T)
	}
	return nil
}

// area2 is twice the signed element area, by the shoelace formula.
func (s *cstShape) area2() float64 { return s.c3*s.b2 - s.x31*s.y21 }

// bMatrix computes the 3×6 strain-displacement matrix and twice the
// signed element area, in locals — shared by stiffness and stress
// recovery, so neither allocates.  ok is false for a zero area.
func (s *cstShape) bMatrix(b *[3][6]float64) (a2 float64, ok bool) {
	a2 = s.area2()
	if a2 == 0 {
		return 0, false
	}
	b1, b2, b3, c1, c2, c3 := s.b1, s.b2, s.b3, s.c1, s.c2, s.c3
	inv := 1 / a2
	b[0][0], b[0][1], b[0][2], b[0][3], b[0][4], b[0][5] = b1*inv, 0, b2*inv, 0, b3*inv, 0
	b[1][0], b[1][1], b[1][2], b[1][3], b[1][4], b[1][5] = 0, c1*inv, 0, c2*inv, 0, c3*inv
	b[2][0], b[2][1], b[2][2], b[2][3], b[2][4], b[2][5] = c1*inv, b1*inv, c2*inv, b2*inv, c3*inv, b3*inv
	return a2, true
}

// dMatrix returns the plane stress constitutive matrix.
func (s *cstShape) dMatrix() [3][3]float64 {
	e, nu := s.e, s.nu
	f := e / (1 - nu*nu)
	return [3][3]float64{
		{f, f * nu, 0},
		{f * nu, f, 0},
		{0, 0, f * (1 - nu) / 2},
	}
}

// StiffnessInto writes the CST stiffness k = t·|A|·BᵀDB into a
// caller-owned 6×6 matrix; see cstShape.stiffnessInto.
func (t *CST) StiffnessInto(m *Model, ke *linalg.Dense) error {
	if ke.Rows != 6 || ke.Cols != 6 {
		return fmt.Errorf("%w: CST stiffness into %dx%d", linalg.ErrDimension, ke.Rows, ke.Cols)
	}
	if err := t.unusable(); err != nil {
		return err
	}
	var s cstShape
	t.shape(m, &s)
	if !s.stiffnessInto(ke) {
		return t.degenerate()
	}
	return nil
}

// stiffnessInto writes the stiffness of shape s into the 6×6 ke using
// fixed-size local arrays, allocating nothing.  The accumulation order
// matches the Dense.Mul chain the dense path historically used, so both
// paths produce bit-identical entries.  For a degenerate shape it
// reports false and leaves ke untouched.
func (s *cstShape) stiffnessInto(ke *linalg.Dense) bool {
	var b [3][6]float64
	a2, ok := s.bMatrix(&b)
	if !ok {
		return false
	}
	area := a2 / 2
	if area < 0 {
		area = -area
	}
	d := s.dMatrix()
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
	scale := s.t * area
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
	return true
}

// AppendStress appends the element stress components σ = D·(B·u_e) =
// (σx, σy, τxy), constant over the triangle, to dst.  B and D live in
// scalars, never in arrays: B as its six distinct coefficients bk·inv and
// ck·inv, computed as bMatrix computes them, D as its three distinct
// entries, spelled as dMatrix spells them.  (dMatrix returns a [3][3] by
// value, a copy written eight bytes at a time and read sixteen: every
// element stalls on a load the store buffer cannot forward.)
// Each row is one sum from +0 in Dense.MulVec's order, every column
// included: a structural zero of B or D is an explicit product with z,
// so −0, ±Inf and NaN in u propagate as a dense product would, and the
// result is bit-identical to the Dense chain and the array kernel kept
// as references in stress_test.go.  The three rows are independent sums
// and advance together, term by term, so that one row's additions
// overlap another's.
func (t *CST) AppendStress(m *Model, u linalg.Vector, dst []float64) ([]float64, error) {
	var sh cstShape
	t.shape(m, &sh)
	a2 := sh.area2()
	if a2 == 0 {
		return dst, t.degenerate()
	}
	inv := 1 / a2
	b1, b2, b3 := sh.b1*inv, sh.b2*inv, sh.b3*inv
	c1, c2, c3 := sh.c1*inv, sh.c2*inv, sh.c3*inv
	var z float64
	u0, u1 := u[DOF(t.N1, 0)], u[DOF(t.N1, 1)]
	u2, u3 := u[DOF(t.N2, 0)], u[DOF(t.N2, 1)]
	u4, u5 := u[DOF(t.N3, 0)], u[DOF(t.N3, 1)]
	// B = [b1 0 b2 0 b3 0; 0 c1 0 c2 0 c3; c1 b1 c2 b2 c3 b3].
	var e0, e1, e2 float64
	e0, e1, e2 = e0+b1*u0, e1+z*u0, e2+c1*u0
	e0, e1, e2 = e0+z*u1, e1+c1*u1, e2+b1*u1
	e0, e1, e2 = e0+b2*u2, e1+z*u2, e2+c2*u2
	e0, e1, e2 = e0+z*u3, e1+c2*u3, e2+b2*u3
	e0, e1, e2 = e0+b3*u4, e1+z*u4, e2+c3*u4
	e0, e1, e2 = e0+z*u5, e1+c3*u5, e2+b3*u5
	// D = [f fν 0; fν f 0; 0 0 g].
	nu := sh.nu
	f := sh.e / (1 - nu*nu)
	fnu, g := f*nu, f*(1-nu)/2
	var s0, s1, s2 float64
	s0, s1, s2 = s0+f*e0, s1+fnu*e0, s2+z*e0
	s0, s1, s2 = s0+fnu*e1, s1+f*e1, s2+z*e1
	s0, s1, s2 = s0+z*e2, s1+z*e2, s2+g*e2
	return append(dst, s0, s1, s2), nil
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

package fem

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/obs"
)

func TestModelBasics(t *testing.T) {
	m := NewModel("m")
	n0 := m.AddNode(0, 0)
	n1 := m.AddNode(1, 0)
	if n0 != 0 || n1 != 1 {
		t.Errorf("node ids %d, %d", n0, n1)
	}
	if err := m.AddElement(&Bar{N1: 0, N2: 1, Mat: Steel()}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddElement(&Bar{N1: 0, N2: 7, Mat: Steel()}); err == nil {
		t.Error("element with missing node accepted")
	}
	if m.NumDOF() != 4 {
		t.Errorf("NumDOF = %d", m.NumDOF())
	}
	if err := m.FixDOF(99); err == nil {
		t.Error("fix of out-of-range dof accepted")
	}
	if err := m.FixNode(0); err != nil {
		t.Fatal(err)
	}
	if !m.Fixed(0) || !m.Fixed(1) || m.Fixed(2) {
		t.Error("Fixed flags wrong")
	}
	if m.NumFixed() != 2 {
		t.Errorf("NumFixed = %d", m.NumFixed())
	}
	free, index := m.FreeDOFs()
	if len(free) != 2 || free[0] != 2 || free[1] != 3 {
		t.Errorf("free = %v", free)
	}
	if index[0] != -1 || index[2] != 0 {
		t.Errorf("index = %v", index)
	}
}

func TestModelValidate(t *testing.T) {
	m := NewModel("v")
	if err := m.Validate(); err == nil {
		t.Error("empty model validated")
	}
	m.AddNode(0, 0)
	m.AddNode(1, 0)
	if err := m.Validate(); err == nil {
		t.Error("element-less model validated")
	}
	m.AddElement(&Bar{N1: 0, N2: 1, Mat: Steel()})
	if err := m.Validate(); err == nil {
		t.Error("unconstrained model validated")
	}
	m.FixNode(0)
	m.FixDOF(DOF(1, 1))
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

// TestValidateRejectsFixesOfDroppedNodes pins the fixes a truncation of
// Nodes leaves behind: FixDOF range-checks its dof, but dropping the node
// afterwards keeps the fix, which no longer constrains anything.  Such a
// model used to pass Validate on the stale fix's count and fail in the
// factor (or, adopting a workspace with as many fixes, panic in the
// topology check); it is an ErrModel naming the dof.
func TestValidateRejectsFixesOfDroppedNodes(t *testing.T) {
	// A braced unit square, nodes 0..3, with node 0 pinned and the fix
	// named by third: 3 (node 1's y) makes it rigid.
	square := func(third int, extra bool) *Model {
		m := NewModel("square")
		for _, p := range []NodeCoord{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}} {
			m.AddNode(p.X, p.Y)
		}
		for _, ends := range [][2]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}} {
			if err := m.AddElement(&Bar{N1: ends[0], N2: ends[1], Mat: Steel()}); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range []int{0, 1, third} {
			if err := m.FixDOF(d); err != nil {
				t.Fatal(err)
			}
		}
		if !extra {
			m.Nodes = m.Nodes[:4] // node 4, and dof 9 with it, is gone
		}
		return m
	}
	ls := &LoadSet{Name: "pull", Entries: []LoadEntry{{DOF: DOF(3, 0), Value: 100}}}
	stale := square(9, false)
	err := stale.Validate()
	if !errors.Is(err, ErrModel) || !strings.Contains(err.Error(), "fixed dof 9 of 8") {
		t.Fatalf("Validate with a stale fix: %v", err)
	}
	reg := obs.New()
	stale.Instrument(reg)
	for i := 0; i < 3; i++ {
		if _, err := Solve(context.Background(), stale, ls, SolveOpts{}); !errors.Is(err, ErrModel) {
			t.Fatalf("solve %d with a stale fix: err = %v, want ErrModel", i, err)
		}
	}
	if n := reg.Counter(obs.AssembleSymbolic).Load(); n != 0 {
		t.Errorf("solves of an invalid model built %d symbolic phases", n)
	}
	if err := square(9, true).Validate(); err != nil {
		t.Errorf("the same fixes with node 4 present: %v", err)
	}

	// A workspace with as many fixes, and as many dofs, handed over.
	prev := square(3, false)
	if _, err := Solve(context.Background(), prev, ls, SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	next := square(9, false)
	next.AdoptAssembly(prev)
	if _, err := Solve(context.Background(), next, ls, SolveOpts{}); !errors.Is(err, ErrModel) {
		t.Fatalf("solve of an adopting model with a stale fix: err = %v, want ErrModel", err)
	}
}

// stiffnessOf evaluates e's stiffness the way every assembly path does.
func stiffnessOf(m *Model, e Element) (*linalg.Dense, error) {
	var sc stiffScratch
	return sc.stiffness(m, e, DOFPerNode*len(e.AppendNodes(nil)))
}

func TestBarStiffnessAxial(t *testing.T) {
	m := NewModel("bar")
	m.AddNode(0, 0)
	m.AddNode(2, 0)
	mat := Material{E: 100, A: 3}
	b := &Bar{N1: 0, N2: 1, Mat: mat}
	k, err := stiffnessOf(m, b)
	if err != nil {
		t.Fatal(err)
	}
	// EA/L = 150, pure x coupling.
	if k.At(0, 0) != 150 || k.At(0, 2) != -150 || k.At(1, 1) != 0 {
		t.Errorf("bar stiffness wrong: %v %v %v", k.At(0, 0), k.At(0, 2), k.At(1, 1))
	}
	if !symmetric(k.Rows, k.At, 0) {
		t.Error("bar stiffness asymmetric")
	}
}

func TestBarZeroLength(t *testing.T) {
	m := NewModel("z")
	m.AddNode(1, 1)
	m.AddNode(1, 1)
	b := &Bar{N1: 0, N2: 1, Mat: Steel()}
	if _, err := stiffnessOf(m, b); err == nil {
		t.Error("zero-length bar accepted")
	}
	if _, err := b.AppendStress(m, linalg.NewVector(4), nil); err == nil {
		t.Error("zero-length bar stress accepted")
	}
}

func TestUniaxialBarExactSolution(t *testing.T) {
	// P = 1000 N on a chain of 10 bars: u(x) = P·x/(E·A).
	mat := Material{E: 200000, A: 10}
	const L, P = 100.0, 1000.0
	m, err := UniaxialBar("chain", 10, L, mat)
	if err != nil {
		t.Fatal(err)
	}
	ls := &LoadSet{Name: "tip", Entries: []LoadEntry{{DOF: DOF(10, 0), Value: P}}}
	for _, method := range []string{linalg.BackendCholesky, linalg.BackendCG, linalg.BackendSOR, linalg.BackendJacobi} {
		sol, err := Solve(context.Background(), m, ls, SolveOpts{Backend: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		// Direct solves hit machine precision; iterative ones stop at
		// the 1e-8 relative residual.
		utol := 1e-12
		stol := 1e-7
		if method != linalg.BackendCholesky {
			utol, stol = 1e-8, 1e-4
		}
		for i := 0; i <= 10; i++ {
			x := m.Nodes[i].X
			want := P * x / (mat.E * mat.A)
			got := sol.U[DOF(i, 0)]
			if math.Abs(got-want) > utol {
				t.Errorf("%v: u(%g) = %g, want %g", method, x, got, want)
			}
		}
		// Uniform axial stress P/A in every element.
		stresses, err := Stresses(m, sol)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range stresses {
			if math.Abs(s[0]-P/mat.A) > stol {
				t.Errorf("%v: element %d stress %g, want %g", method, i, s[0], P/mat.A)
			}
		}
	}
}

func TestReactionsBalanceAppliedLoad(t *testing.T) {
	mat := Material{E: 200000, A: 10}
	m, _ := UniaxialBar("chain", 5, 50, mat)
	const P = 777.0
	ls := &LoadSet{Name: "tip", Entries: []LoadEntry{{DOF: DOF(5, 0), Value: P}}}
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	reac, err := Reactions(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	// The clamped root must carry -P in x.
	if r := reac[DOF(0, 0)]; math.Abs(r+P) > 1e-8 {
		t.Errorf("root reaction %g, want %g", r, -P)
	}
}

func TestCSTPatchTest(t *testing.T) {
	// The patch test: a mesh of CSTs under a linear displacement field
	// must reproduce the field exactly and give constant stress.
	// Uniaxial tension of a rectangular plate: σx = p, u_x = p·x/E,
	// u_y = -ν·p·y/E.
	mat := Material{E: 1000, Nu: 0.25, T: 2}
	o := RectGridOpts{NX: 4, NY: 3, W: 4, H: 3, Mat: mat}
	m, err := RectGrid("patch", o)
	if err != nil {
		t.Fatal(err)
	}
	// Constraints for pure uniaxial stress: u_x = 0 on x=0 edge,
	// u_y = 0 at one node only (no Poisson restraint).
	for j := 0; j <= o.NY; j++ {
		m.FixDOF(DOF(GridNodeID(o.NY, 0, j), 0))
	}
	m.FixDOF(DOF(GridNodeID(o.NY, 0, 0), 1))
	const p = 10.0 // traction
	// Consistent nodal loads on the right edge: p·t·H total, half
	// weights at the corners.
	total := p * mat.T * o.H
	ls := &LoadSet{Name: "tension"}
	for j := 0; j <= o.NY; j++ {
		w := 1.0
		if j == 0 || j == o.NY {
			w = 0.5
		}
		ls.Entries = append(ls.Entries, LoadEntry{
			DOF:   DOF(GridNodeID(o.NY, o.NX, j), 0),
			Value: total * w / float64(o.NY),
		})
	}
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= o.NX; i++ {
		for j := 0; j <= o.NY; j++ {
			n := GridNodeID(o.NY, i, j)
			x := m.Nodes[n].X
			wantUx := p * x / mat.E
			if got := sol.U[DOF(n, 0)]; math.Abs(got-wantUx) > 1e-9 {
				t.Errorf("u_x(%d,%d) = %g, want %g", i, j, got, wantUx)
			}
		}
	}
	stresses, err := Stresses(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stresses {
		if math.Abs(s[0]-p) > 1e-8 || math.Abs(s[1]) > 1e-8 || math.Abs(s[2]) > 1e-8 {
			t.Errorf("element %d stress = %v, want [%g 0 0]", i, s, p)
		}
		if vm := VonMises(s); math.Abs(vm-p) > 1e-8 {
			t.Errorf("element %d von Mises = %g", i, vm)
		}
	}
}

func TestCSTDegenerateTriangle(t *testing.T) {
	m := NewModel("d")
	m.AddNode(0, 0)
	m.AddNode(1, 0)
	m.AddNode(2, 0) // collinear
	c := &CST{N1: 0, N2: 1, N3: 2, Mat: Steel()}
	if _, err := stiffnessOf(m, c); err == nil {
		t.Error("degenerate CST accepted")
	}
}

func TestAssembledSystemSPD(t *testing.T) {
	o := RectGridOpts{NX: 5, NY: 4, W: 5, H: 4, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("spd", o)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	if !symmetric(asm.K.N, asm.K.At, 1e-9) {
		t.Error("assembled stiffness not symmetric")
	}
	plan, err := linalg.NewDirectPlan(asm.K, linalg.PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(asm.K, nil); err != nil {
		t.Errorf("assembled stiffness not positive definite: %v", err)
	}
	wantN := m.NumDOF() - m.NumFixed()
	if asm.K.N != wantN {
		t.Errorf("reduced order %d, want %d", asm.K.N, wantN)
	}
}

func TestExpandReduceRoundTrip(t *testing.T) {
	o := RectGridOpts{NX: 3, NY: 3, W: 3, H: 3, Mat: Steel(), ClampLeft: true}
	m, _ := RectGrid("er", o)
	asm, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewVector(asm.K.N)
	for i := range x {
		x[i] = float64(i + 1)
	}
	full := asm.Expand(x, nil)
	back := asm.Reduce(full)
	if linalg.MaxAbsDiff(x, back) != 0 {
		t.Error("Expand/Reduce not inverse")
	}
	for d := 0; d < m.NumDOF(); d++ {
		if m.Fixed(d) && full[d] != 0 {
			t.Errorf("fixed dof %d nonzero", d)
		}
	}
}

func TestAllMethodsAgreeOnPlate(t *testing.T) {
	o := RectGridOpts{NX: 4, NY: 4, W: 4, H: 4, Mat: Steel(), ClampLeft: true}
	m, _ := RectGrid("agree", o)
	ls := EndLoad("shear", o, 0, -500)
	ref, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Jacobi is excluded: its spectral radius on CST plates is too close
	// to 1 for the default budget (the classical reason the FEM
	// literature moved to SOR and CG).
	scale := linalg.NormInf(ref.U)
	for _, method := range []string{linalg.BackendCG, linalg.BackendSOR} {
		sol, err := Solve(context.Background(), m, ls, SolveOpts{Backend: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-5*scale {
			t.Errorf("%v differs from direct by %g (scale %g)", method, d, scale)
		}
	}
}

func TestCantileverTrussTipDeflection(t *testing.T) {
	m, err := CantileverTruss("truss", 4, 1000, 1000, Material{E: 200000, A: 100})
	if err != nil {
		t.Fatal(err)
	}
	ls := TipLoad("tip", 4, 10000)
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tip := sol.U[DOF(4, 1)]
	if tip >= 0 {
		t.Errorf("tip moved up (%g) under downward load", tip)
	}
	// Stresses exist and the worst member is loaded.
	stresses, err := Stresses(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, s := range stresses {
		if v := math.Abs(s[0]); v > worst {
			worst = v
		}
	}
	if worst == 0 {
		t.Error("no member carries stress")
	}
}

func TestPlateReactionsBalanceTotalLoad(t *testing.T) {
	// Global equilibrium: the clamped edge's y reactions must sum to
	// minus the total applied shear.
	o := RectGridOpts{NX: 6, NY: 4, W: 6, H: 4, Mat: Steel(), ClampLeft: true}
	m, _ := RectGrid("eq", o)
	const fy = -1234.0
	ls := EndLoad("shear", o, 0, fy)
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	reac, err := Reactions(m, sol)
	if err != nil {
		t.Fatal(err)
	}
	var sumY, sumX float64
	for d, v := range reac {
		if d%2 == 1 {
			sumY += v
		} else {
			sumX += v
		}
	}
	if math.Abs(sumY+fy) > 1e-6 {
		t.Errorf("y reactions sum to %g, want %g", sumY, -fy)
	}
	if math.Abs(sumX) > 1e-6 {
		t.Errorf("x reactions sum to %g, want 0", sumX)
	}
}

func TestRHSRejectsBadDOF(t *testing.T) {
	m, _ := UniaxialBar("r", 2, 2, Steel())
	_, index := m.FreeDOFs()
	free, _ := m.FreeDOFs()
	if _, err := m.RHS(&LoadSet{Entries: []LoadEntry{{DOF: 999, Value: 1}}}, index, len(free)); err == nil {
		t.Error("load on missing dof accepted")
	}
}

func TestGridGeneratorErrors(t *testing.T) {
	if _, err := RectGrid("x", RectGridOpts{NX: 0, NY: 1, W: 1, H: 1}); err == nil {
		t.Error("0-cell grid accepted")
	}
	if _, err := RectGrid("x", RectGridOpts{NX: 1, NY: 1, W: 0, H: 1}); err == nil {
		t.Error("zero-width grid accepted")
	}
	if _, err := CantileverTruss("t", 0, 1, 1, Steel()); err == nil {
		t.Error("0-bay truss accepted")
	}
	if _, err := UniaxialBar("b", 0, 1, Steel()); err == nil {
		t.Error("0-element bar accepted")
	}
}

func TestJitteredGridStillSolvable(t *testing.T) {
	o := RectGridOpts{NX: 6, NY: 6, W: 6, H: 6, Mat: Steel(), ClampLeft: true, Jitter: 0.25, Seed: 3}
	m, err := RectGrid("irregular", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("pull", o, 1000, 0)
	sol, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if linalg.NormInf(sol.U) == 0 {
		t.Error("load produced no displacement")
	}
	// Determinism: same seed, same mesh.
	m2, _ := RectGrid("irregular2", o)
	for i := range m.Nodes {
		if m.Nodes[i] != m2.Nodes[i] {
			t.Fatal("jitter not deterministic")
		}
	}
}

// Property: for random bar orientations the element stiffness is
// symmetric positive semidefinite with exactly two zero eigen-directions
// (rigid translations along the kernel) — checked via xᵀKx ≥ 0.
func TestQuickBarStiffnessPSD(t *testing.T) {
	f := func(x1, y1, x2, y2 int8, probe [4]int8) bool {
		if x1 == x2 && y1 == y2 {
			return true
		}
		m := NewModel("q")
		m.AddNode(float64(x1), float64(y1))
		m.AddNode(float64(x2), float64(y2))
		b := &Bar{N1: 0, N2: 1, Mat: Material{E: 100, A: 1}}
		k, err := stiffnessOf(m, b)
		if err != nil {
			return false
		}
		if !symmetric(k.Rows, k.At, 1e-9) {
			return false
		}
		v := linalg.Vector{float64(probe[0]), float64(probe[1]), float64(probe[2]), float64(probe[3])}
		kv := k.MulVec(v, nil, nil)
		return linalg.Dot(v, kv, nil) >= -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: rigid body translation produces zero stress in any element.
func TestQuickRigidTranslationZeroStress(t *testing.T) {
	o := RectGridOpts{NX: 2, NY: 2, W: 2, H: 2, Mat: Steel(), ClampLeft: true}
	m, _ := RectGrid("rigid", o)
	f := func(tx, ty int8) bool {
		u := linalg.NewVector(m.NumDOF())
		for n := range m.Nodes {
			u[DOF(n, 0)] = float64(tx)
			u[DOF(n, 1)] = float64(ty)
		}
		for _, e := range m.Elements {
			s, err := e.AppendStress(m, u, nil)
			if err != nil {
				return false
			}
			for _, c := range s {
				if math.Abs(c) > 1e-8*math.Abs(float64(tx)+float64(ty)+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// symmetric reports whether the n×n matrix at reads is symmetric within
// tol.
func symmetric(n int, at func(i, j int) float64, tol float64) bool {
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if d := at(i, j) - at(j, i); d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

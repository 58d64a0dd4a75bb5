package fem

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// differential solves one model two ways and demands the same bits: the
// way Solve does, through the model's retained assembly and factors, and
// from scratch on a deep copy; the retained K.Val must also equal the
// unmemoised oracle scatter's (memo_test.go).  Before and after every
// solve the retained workspace's walk is compared with the two-walk
// oracle (walk_test.go), and Refactored is predicted from that oracle: a
// direct solve reuses its backend's factor if and only if every
// stiffness input is unchanged since the last successful factor — the
// oracle's record is still the one that factor was computed under, and
// finds the model unchanged.  The reference solves its deep copy through
// a factor cache of its own, twice under one token when the prediction
// is a reuse, so flops are predicted with it.  Every reuse the retained
// side reports must also pass the value proof the factor cache no longer
// makes: the retained K holds, bit for bit, the values last factored,
// and none of them is a NaN.  The retained side recycles as a session's
// workspace entry does: each solve writes over the solution the previous
// one replaced (SolveInto), whatever model and topology that one had.
type differential struct {
	reg               *obs.Registry
	reused, unchanged *obs.Counter
	oracle            twoWalk
	// factors holds, per direct backend, what the oracle knows of that
	// backend's factor in the model's cache; no entry for none it trusts.
	factors    map[string]*factorRecord
	walks      [3]int
	sol, spare *Solution
}

// factorRecord is the oracle's account of one retained factor: the
// two-walk record it was computed under, and a copy of the values it was
// computed from.
type factorRecord struct {
	pass uint64
	vals []float64
	// nan records a NaN among vals: it equals nothing, itself included,
	// so a reuse of such a factor is never proven by its values.
	nan bool
}

func newDifferential() *differential {
	reg := obs.New()
	return &differential{
		reg:       reg,
		reused:    reg.Counter(obs.AssembleReused),
		unchanged: reg.Counter(obs.AssembleUnchanged),
		factors:   map[string]*factorRecord{},
	}
}

// touch drops the retained state (dropRetained), and with it every
// factor the oracle knew of.
func (d *differential) touch(m *Model) {
	dropRetained(m)
	clear(d.factors)
}

// firstDiff returns the first index at which a and b differ in length or
// bit pattern (so a NaN equals itself and -0 differs from +0), -1 when
// there is none.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// solve solves m both ways and fails the test unless the two fail with
// the same message or agree bit for bit in K, U, Residual, Iterations,
// Stats.Flops and Refactored.  It reports whether the retained solve
// skipped the numeric assembly, and the error both sides returned.
func (d *differential) solve(t testing.TB, label string, m *Model, ls *LoadSet, backend string) (skipped bool, err error) {
	t.Helper()
	m.Instrument(d.reg)
	opts := SolveOpts{Backend: backend}
	before := d.unchanged.Load()
	_, direct := linalg.PlanOptsFor(backend)
	same := d.checkWalk(t, label+", before", m)
	f := d.factors[backend]
	warm := direct && same && f != nil && f.pass == d.oracle.pass
	got, gotErr := SolveInto(context.Background(), m, ls, opts, d.spare)
	d.spare = nil
	if gotErr == nil {
		d.sol, d.spare = got, d.sol
	}
	skipped = d.unchanged.Load() != before
	if d.unchanged.Load() > d.reused.Load() {
		t.Fatalf("%s: unchanged %d exceeds reused %d", label, d.unchanged.Load(), d.reused.Load())
	}
	d.recordPass(t, m)
	d.checkWalk(t, label+", after", m)
	if direct {
		d.factored(t, label, m, backend, got, gotErr)
	}

	fresh := deepCopy(t, m)
	var want *Solution
	oracle, oracleErr := oracleK(fresh)
	asm, wantErr := Assemble(fresh)
	if (oracleErr == nil) != (wantErr == nil) || oracleErr != nil && oracleErr.Error() != wantErr.Error() {
		t.Fatalf("%s: fresh assembly err %v vs unmemoised oracle %v", label, wantErr, oracleErr)
	}
	if wantErr == nil {
		// Equal error texts below mean the retained side assembled too.
		k := m.retained.ws.asm.K
		if i := firstDiff(k.Val, asm.K.Val); i >= 0 {
			t.Fatalf("%s: K.Val differs from a fresh assembly at entry %d of %d/%d (skipped %v)", label, i, len(k.Val), len(asm.K.Val), skipped)
		}
		if i := firstDiff(k.Val, oracle); i >= 0 {
			t.Fatalf("%s: K.Val differs from the unmemoised oracle at entry %d of %d/%d (skipped %v)", label, i, len(k.Val), len(oracle), skipped)
		}
		want, wantErr = solveReference(fresh, asm, ls, opts, warm)
	}
	sameSolution(t, fmt.Sprintf("%s (skipped %v, warm %v)", label, skipped, warm), got, gotErr, want, wantErr)
	return skipped, gotErr
}

// factored brings the oracle's account of backend's factor up to a
// retained direct solve, got or err, and fails the test when the solve
// reused a factor whose values were not, bit for bit, the retained K's.
// A failed solve leaves no factor the oracle trusts: it either withdrew
// the factor's token or assembled under a new one.
func (d *differential) factored(t testing.TB, label string, m *Model, backend string, got *Solution, err error) {
	t.Helper()
	if err != nil {
		delete(d.factors, backend)
		return
	}
	k := m.retained.ws.asm.K.Val
	f := d.factors[backend]
	if !got.Refactored {
		if f == nil || f.nan || !valuesEqual(f.vals, k) {
			t.Fatalf("%s: reused a factor of other values than K's", label)
		}
		return
	}
	if f == nil {
		f = &factorRecord{}
		d.factors[backend] = f
	}
	f.pass = d.oracle.pass
	if len(f.vals) != len(k) {
		f.vals = make([]float64, len(k))
	}
	copy(f.vals, k)
	f.nan = hasNaN(f.vals)
}

// valuesEqual reports whether two value arrays hold the same bit
// patterns (-0 differs from +0) — the stiffness witness's rule, but for
// the NaNs, which are hasNaN's to find.
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hasNaN reports whether any value is a NaN.
func hasNaN(vals []float64) bool {
	for _, v := range vals {
		if v != v {
			return true
		}
	}
	return false
}

// solveReference solves asm, a one-shot assembly of m, through m's
// factor cache under one token: once, or twice when warm, so that the
// second solve rides the factor the first computed.
func solveReference(m *Model, asm *Assembled, ls *LoadSet, opts SolveOpts, warm bool) (*Solution, error) {
	meth, err := opts.method()
	if err != nil {
		return nil, err
	}
	const pass = 1
	sol, err := solveAssembled(context.Background(), m, asm, pass, ls, meth, opts, m.Factors(), &solveScratch{}, &Solution{})
	if err != nil || !warm {
		return sol, err
	}
	return solveAssembled(context.Background(), m, asm, pass, ls, meth, opts, m.Factors(), &solveScratch{}, &Solution{})
}

// sameSolution fails the test unless two solves failed with the same
// message or agree bit for bit in U, Residual, Iterations, Stats.Flops
// and Refactored.
func sameSolution(t testing.TB, label string, got *Solution, gotErr error, want *Solution, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err %v vs fresh %v", label, gotErr, wantErr)
		}
		return
	}
	if got.Refactored != want.Refactored || got.Stats.Flops != want.Stats.Flops || got.Iterations != want.Iterations ||
		math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: refactored/flops/iterations/residual %v/%d/%d/%g vs fresh %v/%d/%d/%g", label,
			got.Refactored, got.Stats.Flops, got.Iterations, got.Residual,
			want.Refactored, want.Stats.Flops, want.Iterations, want.Residual)
	}
	if i := firstDiff(got.U, want.U); i >= 0 {
		t.Fatalf("%s: U differs from a fresh solve at dof %d of %d/%d", label, i, len(got.U), len(want.U))
	}
}

// unproven is a caller between retained solves that vouches for nothing:
// it solves a system of its own — the retained K with entry entry's value
// scaled — through solveUnproven on m, and so through m's factor cache,
// and the same system through a deep copy's, and demands the same bits
// of both and a refactor of each.  The factor this leaves behind carries
// no token, so the next retained solve of its backend must refactor.
func (d *differential) unproven(t testing.TB, label string, m *Model, entry int, scale float64, ls *LoadSet) {
	t.Helper()
	ws := m.retained.ws
	if ws == nil {
		return
	}
	k := *ws.asm.K
	k.Val = append([]float64(nil), k.Val...)
	if len(k.Val) > 0 {
		k.Val[entry%len(k.Val)] *= scale
	}
	asm := &Assembled{K: &k, Free: ws.asm.Free, Index: ws.asm.Index}
	opts := SolveOpts{Backend: linalg.BackendCholeskyEnv}
	got, gotErr := solveUnproven(m, asm, ls, opts)
	delete(d.factors, opts.Backend)
	if gotErr == nil && !got.Refactored {
		t.Fatalf("%s: a pass 0 solve reused a factor", label)
	}
	want, wantErr := solveUnproven(deepCopy(t, m), asm, ls, opts)
	sameSolution(t, label, got, gotErr, want, wantErr)
}

// stiffCST is a second element type with a CST's connectivity, Kind,
// nodes and Material (all promoted from the embedded CST) but twice its
// stiffness: what tells the two apart is the concrete type alone.  It is
// neither a *Bar nor a *CST, so the walk never finds it unchanged.
type stiffCST struct{ CST }

func (s *stiffCST) StiffnessInto(m *Model, ke *linalg.Dense) error {
	if err := s.CST.StiffnessInto(m, ke); err != nil {
		return err
	}
	for i := 0; i < ke.Rows; i++ {
		for j := 0; j < ke.Cols; j++ {
			ke.Set(i, j, 2*ke.At(i, j))
		}
	}
	return nil
}

func (s *stiffCST) copyElement() Element { cp := *s; return &cp }

// witnessModel is mixedModel plus one clamped node no element uses.
func witnessModel(t *testing.T) (*Model, *LoadSet) {
	t.Helper()
	m := mixedModel(t)
	if err := m.FixNode(m.AddNode(9, 9)); err != nil {
		t.Fatal(err)
	}
	_, ls := cachePlate(t)
	return m, ls
}

// skipWant is what a row expects of one solve.
type skipWant int

const (
	skips skipWant = iota
	assembles
	assemblesAndFails // the numeric pass runs into an element error
	assemblesMayFail  // a NaN matrix: what the solver makes of it is the backend's business
	either
)

// witnessStep is one edit (nil for none) and the solve after it; edit
// returns the model to go on with, m or its replacement.
type witnessStep struct {
	edit func(t *testing.T, m *Model) *Model
	want skipWant
}

// inPlace adapts an edit that keeps the model object.
func inPlace(f func(m *Model)) func(*testing.T, *Model) *Model {
	return func(_ *testing.T, m *Model) *Model { f(m); return m }
}

// moved is the common row shape: the solve after the edit must assemble,
// and the next one, nothing having moved since, must skip again.
func moved(f func(m *Model)) []witnessStep {
	return []witnessStep{{inPlace(f), assembles}, {nil, skips}}
}

// TestStiffnessWitnessCannotLie has one row per way a value that K
// depends on can move — or can look as if it had not — under a model
// that was just solved twice (a cold solve, then a control that must
// skip).  Every solve is compared bit for bit with a fresh deep copy,
// and assemble.unchanged says whether the numeric pass was skipped.
func TestStiffnessWitnessCannotLie(t *testing.T) {
	const (
		lastNode  = 34 // top right corner: only the last two CSTs use it
		spareNode = 35 // witnessModel's clamped node no element uses
		barIndex  = 48 // mixedModel's stiffener
	)
	cst := func(m *Model, i int) *CST { return m.Elements[i].(*CST) }
	negZero := math.Copysign(0, -1)
	var corner NodeCoord
	var d *differential // the running row's
	rows := []struct {
		name  string
		steps []witnessStep
	}{
		{"nothing", []witnessStep{{nil, skips}}},
		{"coordinate of a used node", moved(func(m *Model) { m.Nodes[12].X += 0.125 })},
		{"coordinate of a node no element uses", []witnessStep{
			{inPlace(func(m *Model) { m.Nodes[spareNode].Y -= 3 }), either}, {nil, skips}}},
		{"CST Mat.E", moved(func(m *Model) { cst(m, 4).Mat.E *= 1.5 })},
		{"CST Mat.Nu", moved(func(m *Model) { cst(m, 4).Mat.Nu = 0.25 })},
		{"CST Mat.T", moved(func(m *Model) { cst(m, 4).Mat.T *= 2 })},
		{"CST Mat.A", moved(func(m *Model) { cst(m, 4).Mat.A *= 2 })},
		{"Bar Mat.E", moved(func(m *Model) { m.Elements[barIndex].(*Bar).Mat.E *= 1.5 })},
		{"Bar Mat.A", moved(func(m *Model) { m.Elements[barIndex].(*Bar).Mat.A /= 2 })},
		{"+0 to -0 and back", []witnessStep{
			{inPlace(func(m *Model) { m.Nodes[0].X = negZero }), assembles}, {nil, skips},
			{inPlace(func(m *Model) { m.Nodes[0].X = 0 }), assembles}, {nil, skips}}},
		{"NaN coordinate", []witnessStep{
			{inPlace(func(m *Model) { corner = m.Nodes[lastNode]; m.Nodes[lastNode].X = math.NaN() }), assemblesMayFail},
			{nil, assemblesMayFail}, // a NaN never equals the record, not even itself
			{inPlace(func(m *Model) { m.Nodes[lastNode] = corner }), assembles}, {nil, skips}}},
		{"element replaced by an equal object", []witnessStep{
			{inPlace(func(m *Model) { cp := *cst(m, 6); m.Elements[6] = &cp }), skips}}},
		{"element replaced by another type, equal connectivity and inputs", []witnessStep{
			// Neither a *Bar nor a *CST: assembled on every solve.
			{inPlace(func(m *Model) { m.Elements[6] = &stiffCST{CST: *cst(m, 6)} }), assembles}, {nil, assembles}}},
		{"assembly error, re-solve, then exact revert", []witnessStep{
			// The corner slides onto the line through the last CST's other
			// two nodes: that element alone degenerates, after the 47
			// before it were scattered into the zeroed buffer.  Solved
			// again as it is, the model reads exactly as the half-made
			// record says and must fail again; put back bit for bit, it
			// must be assembled in full.
			{inPlace(func(m *Model) {
				corner = m.Nodes[lastNode]
				p := m.Nodes[cst(m, 47).N1]
				m.Nodes[lastNode] = NodeCoord{X: p.X, Y: p.Y + 1.5}
			}), assemblesAndFails},
			{nil, assemblesAndFails},
			{inPlace(func(m *Model) { m.Nodes[lastNode] = corner }), assembles}, {nil, skips}}},
		{"public Assemble on the retained workspace", []witnessStep{
			{func(t *testing.T, m *Model) *Model {
				if _, err := m.retained.ws.Assemble(); err != nil {
					t.Fatal(err)
				}
				return m
			}, assembles}, {nil, skips}}},
		{"public Assemble twice on the retained workspace", []witnessStep{
			{func(t *testing.T, m *Model) *Model {
				for pass := 0; pass < 2; pass++ {
					if _, err := m.retained.ws.Assemble(); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}, assembles}, {nil, skips}}},
		{"adopted by an equal model", []witnessStep{
			{func(t *testing.T, m *Model) *Model {
				next := deepCopy(t, m)
				next.AdoptAssembly(m)
				return next
			}, skips}}},
		{"adopted by a model with another modulus", []witnessStep{
			{func(t *testing.T, m *Model) *Model {
				next := deepCopy(t, m)
				cst(next, 4).Mat.E *= 1.5
				next.AdoptAssembly(m)
				return next
			}, assembles}, {nil, skips}}},
		{"Touch", moved(func(m *Model) { d.touch(m) })},
		{"topology edit", moved(func(m *Model) { m.Elements = append(m.Elements, &Bar{N1: 8, N2: 30, Mat: Steel()}) })},
	}
	for _, backend := range []string{linalg.BackendCholeskyEnv, linalg.BackendCG} {
		for _, row := range rows {
			t.Run(backend+"/"+row.name, func(t *testing.T) {
				m, ls := witnessModel(t)
				if x := m.Nodes[0].X; x != 0 || math.Signbit(x) {
					t.Fatalf("node 0 starts at x = %g, the ±0 row needs +0", x)
				}
				d = newDifferential()
				if skipped, err := d.solve(t, "cold", m, ls, backend); skipped || err != nil {
					t.Fatalf("cold solve: skipped %v, err %v", skipped, err)
				}
				if skipped, err := d.solve(t, "control", m, ls, backend); !skipped || err != nil {
					t.Fatalf("control re-solve: skipped %v, err %v", skipped, err)
				}
				for i, st := range row.steps {
					if st.edit != nil {
						m = st.edit(t, m)
					}
					skipped, err := d.solve(t, fmt.Sprintf("step %d", i), m, ls, backend)
					if st.want != either && skipped != (st.want == skips) {
						t.Fatalf("step %d: skipped the numeric assembly = %v", i, skipped)
					}
					if failed := err != nil; failed != (st.want == assemblesAndFails) && st.want != assemblesMayFail {
						t.Fatalf("step %d: err = %v", i, err)
					}
				}
			})
		}
	}
}

package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// cachePlate builds the small plate fixture the cache tests solve.
func cachePlate(t *testing.T) (*Model, *LoadSet) {
	t.Helper()
	o := RectGridOpts{NX: 6, NY: 4, W: 6, H: 4, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("plate", o)
	if err != nil {
		t.Fatal(err)
	}
	return m, EndLoad("tip", o, 0, -500)
}

// TestSolveFactorCacheWarmReuse pins the tentpole contract for every
// direct backend: the second solve of an unchanged model rides the
// cached factor (Refactored false, no second factorisation, fewer
// flops) and its solution is bit-identical to the cold solve.
func TestSolveFactorCacheWarmReuse(t *testing.T) {
	for _, backend := range []string{"", linalg.BackendCholesky, linalg.BackendCholeskyRCM, linalg.BackendCholeskyEnv} {
		t.Run("backend="+backend, func(t *testing.T) {
			m, ls := cachePlate(t)
			ctx := context.Background()
			cold, err := Solve(ctx, m, ls, SolveOpts{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if !cold.Refactored {
				t.Error("cold solve did not report Refactored")
			}
			if g := m.Factors().Generation(); g != 1 {
				t.Errorf("generation after cold solve = %d, want 1", g)
			}
			warm, err := Solve(ctx, m, ls, SolveOpts{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Refactored {
				t.Error("warm solve refactored despite unchanged model")
			}
			if g := m.Factors().Generation(); g != 1 {
				t.Errorf("generation after warm solve = %d, want 1", g)
			}
			if warm.Stats.Flops >= cold.Stats.Flops {
				t.Errorf("warm flops %d not below cold %d", warm.Stats.Flops, cold.Stats.Flops)
			}
			for i := range cold.U {
				if warm.U[i] != cold.U[i] {
					t.Fatalf("warm solution differs at dof %d", i)
				}
			}
			// And against a model that never had a cache: bit-identical.
			fresh, lsFresh := cachePlate(t)
			ref, err := Solve(ctx, fresh, lsFresh, SolveOpts{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.U {
				if warm.U[i] != ref.U[i] {
					t.Fatalf("cached solution differs from fresh-model solve at dof %d", i)
				}
			}
		})
	}
}

// TestSolveFactorCacheInvalidation covers the satellite: reassembling
// after an element property change must refactor (generation bump) and
// produce exactly the fresh-model answer — even though the mutation
// went through an exported field the model could not observe.
func TestSolveFactorCacheInvalidation(t *testing.T) {
	m, ls := cachePlate(t)
	ctx := context.Background()
	if _, err := Solve(ctx, m, ls, SolveOpts{Backend: linalg.BackendCholeskyRCM}); err != nil {
		t.Fatal(err)
	}
	if g := m.Factors().Generation(); g != 1 {
		t.Fatalf("generation after first solve = %d, want 1", g)
	}
	// Soften one element behind the model's back.
	cst, ok := m.Elements[3].(*CST)
	if !ok {
		t.Fatalf("element 3 is %T, want *CST", m.Elements[3])
	}
	cst.Mat.E /= 2
	changed, err := Solve(ctx, m, ls, SolveOpts{Backend: linalg.BackendCholeskyRCM})
	if err != nil {
		t.Fatal(err)
	}
	if !changed.Refactored {
		t.Error("solve after property change did not refactor")
	}
	if g := m.Factors().Generation(); g != 2 {
		t.Errorf("generation after property change = %d, want 2", g)
	}
	// The refactored answer equals a never-cached solve of the changed
	// model bit for bit.
	fresh, lsFresh := cachePlate(t)
	fresh.Elements[3].(*CST).Mat.E /= 2
	ref, err := Solve(ctx, fresh, lsFresh, SolveOpts{Backend: linalg.BackendCholeskyRCM})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.U {
		if changed.U[i] != ref.U[i] {
			t.Fatalf("refactored solution differs from fresh solve at dof %d", i)
		}
	}
	// Topology change: the plan is rebuilt, not refactored in place.
	// The new node hangs off two existing grid nodes so the system stays
	// positive definite.
	nn := m.AddNode(7, 0)
	for _, other := range []int{len(m.Nodes) - 2, len(m.Nodes) - 3} {
		if err := m.AddElement(&Bar{N1: nn, N2: other, Mat: Steel()}); err != nil {
			t.Fatal(err)
		}
	}
	grown, err := Solve(ctx, m, ls, SolveOpts{Backend: linalg.BackendCholeskyRCM})
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Refactored {
		t.Error("solve after topology change did not refactor")
	}
	if len(grown.U) != m.NumDOF() {
		t.Errorf("solution length %d, want %d", len(grown.U), m.NumDOF())
	}
}

// TestHandOverCarriesFactor pins the one way a factor follows a model
// name: the replacement adopts the replaced model's factor cache along
// with its assembly.  An equal replacement solves warm off the very plan
// and factor the old object computed, one that differs in values
// refactors in place without replanning, and the replaced object is left
// with nothing — a move, never a share.
func TestHandOverCarriesFactor(t *testing.T) {
	for _, backend := range []string{linalg.BackendCholesky, linalg.BackendCholeskyRCM, linalg.BackendCholeskyEnv} {
		t.Run(backend, func(t *testing.T) {
			ctx := context.Background()
			opts := SolveOpts{Backend: backend}
			reg := obs.New()
			misses, refactors := reg.Counter(obs.FactorMisses), reg.Counter(obs.FactorRefactors)
			prev, ls := cachePlate(t)
			prev.Instrument(reg)
			cold, err := Solve(ctx, prev, ls, opts)
			if err != nil {
				t.Fatal(err)
			}
			cache := prev.Factors()

			next, _ := cachePlate(t)
			next.AdoptAssembly(prev)
			if next.Factors() != cache || prev.Factors() == cache {
				t.Fatal("the factor cache was not moved to the replacement")
			}
			warm, err := Solve(ctx, next, ls, opts)
			if err != nil {
				t.Fatal(err)
			}
			// No refactor and no miss means no new plan either: a fresh
			// DirectPlan is unfactored.
			if warm.Refactored || cache.Generation() != 1 || misses.Load() != 1 || refactors.Load() != 1 {
				t.Errorf("equal replacement: Refactored %v, generation %d, misses %d, refactors %d; want false 1 1 1",
					warm.Refactored, cache.Generation(), misses.Load(), refactors.Load())
			}
			if i := firstDiff(warm.U, cold.U); i >= 0 {
				t.Errorf("equal replacement: U differs from the replaced model's at dof %d", i)
			}

			softer, _ := cachePlate(t)
			softer.Elements[3].(*CST).Mat.E /= 2
			softer.AdoptAssembly(next)
			got, err := Solve(ctx, softer, ls, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Refactored || misses.Load() != 1 || refactors.Load() != 2 {
				t.Errorf("softer replacement: Refactored %v, misses %d, refactors %d; want true 1 2 (the plan is kept, the factor is not)",
					got.Refactored, misses.Load(), refactors.Load())
			}
			alone, _ := cachePlate(t)
			alone.Elements[3].(*CST).Mat.E /= 2
			want, err := Solve(ctx, alone, ls, opts)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got.U, want.U); i >= 0 {
				t.Errorf("softer replacement: U differs from a stand-alone solve at dof %d", i)
			}

			// The emptied models start over when solved again.
			again, err := Solve(ctx, prev, ls, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Refactored || prev.Factors().Generation() != 1 {
				t.Errorf("replaced model solved again: Refactored %v, generation %d; want true 1", again.Refactored, prev.Factors().Generation())
			}
		})
	}
}

// TestUnreadInputEditRefactors pins the one cost a factor's token proof
// pays over comparing values: an edit the walk sees that leaves K bit
// for bit as it was — every CST's Mat.A, a bar area a CST does not
// read, doubled — refactors the 8×6 plate, and the answer keeps its
// bits.
func TestUnreadInputEditRefactors(t *testing.T) {
	o := RectGridOpts{NX: 8, NY: 6, W: 8, H: 6, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("plate", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("tip", o, 0, -500)
	reg := obs.New()
	refactors := reg.Counter(obs.FactorRefactors)
	m.Instrument(reg)
	ctx := context.Background()
	opts := SolveOpts{Backend: linalg.BackendCholeskyEnv}
	first, err := Solve(ctx, m, ls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Elements {
		e.(*CST).Mat.A *= 2
	}
	before := refactors.Load()
	again, err := Solve(ctx, m, ls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Refactored || refactors.Load() != before+1 {
		t.Errorf("after doubling every CST's Mat.A: Refactored %v, %d more refactors; want true, 1", again.Refactored, refactors.Load()-before)
	}
	if i := firstDiff(again.U, first.U); i >= 0 {
		t.Errorf("U differs from the first solve at dof %d", i)
	}
}

// TestFactorReuseComparesBitPatterns pins the cache's side of "bit for
// bit" at the model's factor cache: the walk compares the stiffness
// inputs' bit patterns, and the cache trusts the token it leaves, so a
// value change the walk saw — a zero that changed sign, a NaN — reaches
// the cache as a new token and refactors, an equal token reuses whatever
// the values, and pass 0 always factors.  Every answer has the bits of a
// solve through a fresh cache.
func TestFactorReuseComparesBitPatterns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// SPD with one stored off-diagonal zero pair, entries 2 and 6.
	k, err := linalg.NewCSRFromTriplets(3, []linalg.Triplet{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 0},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 4}, {Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 0, Val: 0}, {Row: 2, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Val) != 9 || k.Val[2] != 0 || k.Val[6] != 0 {
		t.Fatalf("fixture lost its stored zeros: %v", k.Val)
	}
	b := linalg.Vector{1, 2, 3}
	for _, backend := range []string{linalg.BackendCholesky, linalg.BackendCholeskyEnv} {
		// up is the entry of the zero pair that backend's ordering puts
		// above the diagonal, where a NaN is stored but never factored:
		// the one a fresh factor survives a NaN in.  lo is its twin.
		up := 2
		k.Val[up] = math.NaN()
		if _, _, err := new(linalg.FactorCache).SolveCached(backend, k, 1, b, nil, nil); err != nil {
			up = 6
		}
		k.Val[2], k.Val[6] = 0, 0
		lo := 8 - up
		m := NewModel("bits")
		for i, step := range []struct {
			name       string
			edit       func()
			pass       uint64
			refactored bool
		}{
			{"cold", func() {}, 1, true},
			{"unchanged", func() {}, 1, false},
			{"+0 to -0", func() { k.Val[2], k.Val[6] = negZero, negZero }, 2, true},
			{"unchanged -0", func() {}, 2, false},
			{"-0 back to +0, no token", func() { k.Val[2], k.Val[6] = 0, 0 }, 0, true},
			{"unchanged, no token", func() {}, 0, true},
			{"NaN above the diagonal", func() { k.Val[up] = math.NaN() }, 3, true},
			{"the same NaN again", func() {}, 3, false},
			// Below it the factorisation fails, and leaves no token.
			{"NaN on both sides", func() { k.Val[lo] = math.NaN() }, 4, true},
			{"the same NaNs again", func() {}, 4, true},
			{"restored", func() { k.Val[2], k.Val[6] = 0, 0 }, 5, true},
			{"unchanged again", func() {}, 5, false},
		} {
			step.edit()
			x, refactored, err := m.Factors().SolveCached(backend, k, step.pass, b, nil, nil)
			want, _, wantErr := new(linalg.FactorCache).SolveCached(backend, k, step.pass, b, nil, nil)
			if refactored != step.refactored || (err != nil) != (wantErr != nil) {
				t.Fatalf("%s step %d (%s): refactored = %v, err %v; want %v, err %v", backend, i, step.name, refactored, err, step.refactored, wantErr)
			}
			if j := firstDiff(x, want); j >= 0 {
				t.Errorf("%s step %d (%s): x[%d] = %g, a fresh cache's %g", backend, i, step.name, j, x[j], want[j])
			}
		}
	}
}

// TestSolveCachedPathOptionGuards pins the cached path's error
// behaviour to the method table's: preconditioners are rejected,
// unknown backends are usage errors, cancellation is honoured.
func TestSolveCachedPathOptionGuards(t *testing.T) {
	m, ls := cachePlate(t)
	ctx := context.Background()
	if _, err := Solve(ctx, m, ls, SolveOpts{Backend: linalg.BackendCholesky, Precond: "jacobi"}); err == nil {
		t.Error("direct solve accepted a preconditioner")
	}
	if _, err := Solve(ctx, m, ls, SolveOpts{Backend: "no-such"}); err == nil {
		t.Error("unknown backend accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Solve(cancelled, m, ls, SolveOpts{}); err == nil {
		t.Error("cancelled direct solve succeeded")
	}
}

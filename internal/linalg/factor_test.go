package linalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// shuffled returns the poisson fixture under a structured interleave —
// the bad numbering an ad-hoc mesh generator produces, where per-row
// profiles vary and the envelope should beat the uniform band.
func shuffled(t *testing.T, m *CSR) *CSR {
	t.Helper()
	n := m.N
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			perm[i] = i / 2
		} else {
			perm[i] = (n+1)/2 + i/2
		}
	}
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func rhsFor(m *CSR) Vector {
	b := NewVector(m.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	return b
}

// TestDirectPlanMatchesBaselines pins the plan paths to the historical
// pipelines bit for bit: natural banded against ToBanded+SolveCholesky,
// and RCM banded against the explicit Permute/ToBanded/Unpermute
// pipeline the pre-plan SolveCholeskyRCM ran.
func TestDirectPlanMatchesBaselines(t *testing.T) {
	m := poisson2D(9)
	b := rhsFor(m)

	t.Run("natural-band", func(t *testing.T) {
		stRef := &Stats{}
		ref, err := m.ToBanded().SolveCholesky(b, stRef)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewDirectPlan(m, PlanOpts{})
		if err != nil {
			t.Fatal(err)
		}
		st := &Stats{}
		if err := plan.Refactor(m, st); err != nil {
			t.Fatal(err)
		}
		x, err := plan.SolveInto(b, nil, st)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("plan solution differs at %d: %v vs %v", i, x[i], ref[i])
			}
		}
		if st.Flops != stRef.Flops {
			t.Errorf("plan flops %d, baseline %d", st.Flops, stRef.Flops)
		}
	})

	t.Run("rcm-band", func(t *testing.T) {
		// The historical pipeline, spelled out.
		perm := RCM(m)
		pm, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		px, err := pm.ToBanded().SolveCholesky(PermuteVector(b, perm), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := UnpermuteVector(px, perm)
		x, err := solveCholeskyRCM(m, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("plan RCM solution differs at %d: %v vs %v", i, x[i], ref[i])
			}
		}
	})
}

// TestEnvelopeAgreesWithBand checks the skyline path against the banded
// path on regular, badly numbered and random systems, and that the
// envelope profile never exceeds (and on the shuffled system beats) the
// band.
func TestEnvelopeAgreesWithBand(t *testing.T) {
	type system struct {
		name string
		m    *CSR
	}
	systems := []system{
		{"poisson", poisson2D(9)},
		{"poisson-shuffled", shuffled(t, poisson2D(9))},
	}
	// The envelope kernel's random SPD systems, thinned to about half
	// their entries so the RCM profile comes out ragged.
	rng := rand.New(rand.NewSource(29))
	for _, kind := range profileKinds {
		first := make([]int, 41)
		for i := 1; i < len(first); i++ {
			first[i] = kind.first(rng, i, first[i-1])
		}
		systems = append(systems, system{"random-" + kind.name, sparseCSR(t, rng, randomEnvelope(rng, first))})
	}
	for _, tc := range systems {
		t.Run(tc.name, func(t *testing.T) {
			b := rhsFor(tc.m)
			band, err := NewDirectPlan(tc.m, PlanOpts{Ordering: OrderRCM})
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewDirectPlan(tc.m, PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope})
			if err != nil {
				t.Fatal(err)
			}
			if err := band.Refactor(tc.m, nil); err != nil {
				t.Fatal(err)
			}
			if err := env.Refactor(tc.m, nil); err != nil {
				t.Fatal(err)
			}
			if env.ProfileNNZ() > band.ProfileNNZ() {
				t.Errorf("envelope nnz %d exceeds band nnz %d", env.ProfileNNZ(), band.ProfileNNZ())
			}
			xb, err := band.SolveInto(b, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			xe, err := env.SolveInto(b, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxAbsDiff(xb, xe); d > 1e-10 {
				t.Errorf("envelope vs band solutions differ by %g", d)
			}
			// The factors themselves agree bitwise (same sums; skipped
			// terms are exact zeros).
			l, err := bandedOracle(t, band, tc.m).CholeskyFactor(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.m.N; i++ {
				for j := env.env.First(i); j <= i; j++ {
					if bv, ev := l.At(i, j), env.env.At(i, j); bv != ev {
						t.Fatalf("factor differs at (%d,%d): band %v env %v", i, j, bv, ev)
					}
				}
			}
		})
	}
}

// loadPlan scatters a's values into p's envelope as Refactor does,
// without factoring.
func loadPlan(p *DirectPlan, a *CSR) {
	clear(p.env.env)
	for k, at := range p.scatter {
		if at >= 0 {
			p.env.env[at] = a.Val[k]
		}
	}
}

// bandedOracle returns a in p's ordering as the Banded oracle: ToBanded
// of the permuted matrix, with a's lower-triangle values then copied
// over bit for bit, since Permute sums its triplets from +0 and so turns
// a −0 into +0.
func bandedOracle(t testing.TB, p *DirectPlan, a *CSR) *Banded {
	t.Helper()
	pa, at := a, func(i int) int { return i }
	if p.perm != nil {
		var err error
		if pa, err = a.Permute(p.perm); err != nil {
			t.Fatal(err)
		}
		at = func(i int) int { return p.inv[i] }
	}
	b := pa.ToBanded()
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if pi, pj := at(i), at(a.ColIdx[k]); pj <= pi {
				b.Set(pi, pj, a.Val[k])
			}
		}
	}
	return b
}

// checkBandPlan checks a's band plans, in natural and in RCM order,
// against the Banded oracle: the plan's envelope under each kernel the
// host runs by checkBandKernel, then Refactor and the permuting SolveInto
// against the oracle's solution in a's ordering and its flops.
func checkBandPlan(t *testing.T, a *CSR, rhs Vector) {
	t.Helper()
	for _, tc := range []struct {
		name string
		po   PlanOpts
	}{{"natural", PlanOpts{}}, {"rcm", PlanOpts{Ordering: OrderRCM}}} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewDirectPlan(a, tc.po)
			if err != nil {
				t.Fatal(err)
			}
			oracle := bandedOracle(t, plan, a)
			prhs := rhs
			if plan.perm != nil {
				prhs = PermuteVector(rhs, plan.perm)
			}
			loadPlan(plan, a)
			forEachKernel(t, func(t *testing.T, k envelopeKernel) {
				if err := checkBandKernel(t, k, plan.env, oracle, prhs); err != nil {
					t.Fatal(err)
				}
			})
			var st, wst Stats
			want, err := oracle.SolveCholesky(prhs, &wst)
			if err != nil {
				t.Fatal(err)
			}
			if plan.perm != nil {
				want = UnpermuteVector(want, plan.perm)
			}
			if err := plan.Refactor(a, &st); err != nil {
				t.Fatal(err)
			}
			x, err := plan.SolveInto(rhs, nil, &st)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstBitDiff(x, want); i >= 0 {
				t.Fatalf("plan solution differs from Banded at %d: %v vs %v", i, x[i], want[i])
			}
			if st.Flops != wst.Flops {
				t.Fatalf("plan flops %d, Banded %d", st.Flops, wst.Flops)
			}
		})
	}
}

// TestBandPlansMatchBandedOracle is the band profile's contract as a
// seeded differential test: on the poisson system, its badly numbered
// shuffle, and random SPD systems of every profile shape (with exact −0
// entries), a band plan in natural and in RCM order, factored by either
// kernel, equals the Banded solver it replaced in every factor bit,
// every solution bit and both halves' flops.  The meshes are in
// envelope_mesh_test.go.
func TestBandPlansMatchBandedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	systems := []struct {
		name string
		m    *CSR
	}{
		{"poisson", poisson2D(9)},
		{"poisson-shuffled", shuffled(t, poisson2D(9))},
	}
	for _, kind := range profileKinds {
		for _, n := range []int{1, 7, 41} {
			first := make([]int, n)
			for i := 1; i < n; i++ {
				first[i] = kind.first(rng, i, first[i-1])
			}
			systems = append(systems, struct {
				name string
				m    *CSR
			}{fmt.Sprintf("random-%s-%d", kind.name, n), sparseCSR(t, rng, randomEnvelope(rng, first))})
		}
	}
	for _, tc := range systems {
		t.Run(tc.name, func(t *testing.T) { checkBandPlan(t, tc.m, randomRHS(rng, tc.m.N)) })
	}
}

// TestBandPlanFailsWhereBandedFails plants a pivot of −1, 0 or NaN at
// every row of a 9-row band of half-width 3: a band plan, factored by
// either kernel and by Refactor, fails with the Banded oracle's message —
// the same row and pivot — and books the flops of the row order,
// refEnvelopeFactor's count, where Banded books its column order.
func TestBandPlanFailsWhereBandedFails(t *testing.T) {
	const n, w = 9, 3
	forEachKernel(t, func(t *testing.T, k envelopeKernel) {
		for row := 0; row < n; row++ {
			for _, bad := range []float64{-1, 0, math.NaN()} {
				var ts []Triplet
				for i := 0; i < n; i++ {
					d := 8.0
					if i == row {
						d = bad
					}
					ts = append(ts, Triplet{i, i, d})
					for j := max(0, i-w); j < i; j++ {
						v := 1 / float64(1+i+j)
						ts = append(ts, Triplet{i, j, v}, Triplet{j, i, v})
					}
				}
				a, err := NewCSRFromTriplets(n, ts)
				if err != nil {
					t.Fatal(err)
				}
				_, werr := a.ToBanded().CholeskyFactor(nil)
				plan, err := NewDirectPlan(a, PlanOpts{})
				if err != nil {
					t.Fatal(err)
				}
				loadPlan(plan, a)
				ref := NewEnvelope(plan.env.first)
				copy(ref.env, plan.env.env)
				var rst, st, pst Stats
				refEnvelopeFactor(ref, &rst)
				kerr := k.factor(plan.env, &st)
				perr := plan.Refactor(a, &pst)
				for name, got := range map[string]struct {
					err   error
					flops int64
				}{k.name: {kerr, st.Flops}, "Refactor": {perr, pst.Flops}} {
					if werr == nil || fmt.Sprint(got.err) != werr.Error() {
						t.Fatalf("pivot %g at row %d: %s error %v, Banded %v", bad, row, name, got.err, werr)
					}
					if got.flops != rst.Flops {
						t.Errorf("pivot %g at row %d: %s booked %d flops, the row order %d", bad, row, name, got.flops, rst.Flops)
					}
				}
			}
		}
	})
}

// TestDirectPlanWarmBitIdentical is the differential guarantee the
// factor caches rely on: a warm repeat solve, and a solve after an
// in-place Refactor from unchanged values, are bit-identical to the
// cold solve.
func TestDirectPlanWarmBitIdentical(t *testing.T) {
	m := poisson2D(10)
	b := rhsFor(m)
	for _, po := range []PlanOpts{
		{},
		{Ordering: OrderRCM},
		{Ordering: OrderRCM, Storage: StorageEnvelope},
	} {
		plan, err := NewDirectPlan(m, po)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Refactor(m, nil); err != nil {
			t.Fatal(err)
		}
		cold, err := plan.SolveInto(b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewVector(m.N)
		if _, err := plan.SolveInto(b, warm, nil); err != nil {
			t.Fatal(err)
		}
		if err := plan.Refactor(m, nil); err != nil {
			t.Fatal(err)
		}
		refac, err := plan.SolveInto(b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if warm[i] != cold[i] || refac[i] != cold[i] {
				t.Fatalf("opts %+v: warm/refactor solve differs at %d", po, i)
			}
		}
	}
}

// TestDirectPlanRefactorTracksValues checks a Refactor after a value
// change matches a from-scratch solve of the new matrix bit for bit.
func TestDirectPlanRefactorTracksValues(t *testing.T) {
	m := poisson2D(8)
	b := rhsFor(m)
	plan, err := NewDirectPlan(m, PlanOpts{Ordering: OrderRCM})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SolveInto(b, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Same pattern, new values.
	m2 := &CSR{N: m.N, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: append([]float64(nil), m.Val...)}
	for i := range m2.Val {
		m2.Val[i] *= 2.5
	}
	if err := plan.Refactor(m2, nil); err != nil {
		t.Fatal(err)
	}
	got, err := plan.SolveInto(b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solveCholeskyRCM(m2, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refactored solve differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestDirectPlanWarmAllocationFree pins the steady-state contract: with
// the plan warm, Refactor plus SolveInto into a caller buffer allocates
// nothing, for both storage kinds — the regression behind the old
// pipeline's 631 allocs per cholesky-rcm solve.
func TestDirectPlanWarmAllocationFree(t *testing.T) {
	m := poisson2D(10)
	b := rhsFor(m)
	for _, tc := range []struct {
		name string
		po   PlanOpts
	}{
		{"band-rcm", PlanOpts{Ordering: OrderRCM}},
		{"env-rcm", PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewDirectPlan(m, tc.po)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Refactor(m, nil); err != nil {
				t.Fatal(err)
			}
			out := NewVector(m.N)
			st := &Stats{}
			if avg := testing.AllocsPerRun(20, func() {
				if _, err := plan.SolveInto(b, out, st); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("warm SolveInto: %.1f allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := plan.Refactor(m, st); err != nil {
					t.Fatal(err)
				}
				if _, err := plan.SolveInto(b, out, st); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("warm Refactor+SolveInto: %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// TestDirectPlanSolveMatrix checks the multi-RHS path against repeated
// single solves.
func TestDirectPlanSolveMatrix(t *testing.T) {
	m := poisson2D(6)
	plan, err := NewDirectPlan(m, PlanOpts{Ordering: OrderRCM})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(m, nil); err != nil {
		t.Fatal(err)
	}
	const cols = 3
	c := NewDense(m.N, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < m.N; i++ {
			c.Set(i, j, float64((i+j)%5)-2)
		}
	}
	x, err := plan.SolveMatrixInto(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cols; j++ {
		col := NewVector(m.N)
		for i := 0; i < m.N; i++ {
			col[i] = c.At(i, j)
		}
		want, err := plan.SolveInto(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.N; i++ {
			if x.At(i, j) != want[i] {
				t.Fatalf("matrix solve col %d differs at %d", j, i)
			}
		}
	}
}

// TestDirectPlanErrors covers the state and dimension guards.
func TestDirectPlanErrors(t *testing.T) {
	m := poisson2D(5)
	plan, err := NewDirectPlan(m, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SolveInto(NewVector(m.N), nil, nil); err == nil {
		t.Error("SolveInto before Refactor succeeded")
	}
	other := poisson2D(6)
	if err := plan.Refactor(other, nil); err == nil {
		t.Error("Refactor with mismatched pattern succeeded")
	}
	if err := plan.Refactor(m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SolveInto(NewVector(3), nil, nil); err == nil {
		t.Error("SolveInto with short rhs succeeded")
	}
}

// TestFactorCacheSolveCached covers the cache protocol: cold plan build,
// warm reuse on identical values, in-place refactor on changed values,
// and generation accounting.
func TestFactorCacheSolveCached(t *testing.T) {
	m := poisson2D(8)
	b := rhsFor(m)
	fc := &FactorCache{}
	x1, refac, err := fc.SolveCached(BackendCholeskyRCM, m, 0, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refac {
		t.Error("first solve did not refactor")
	}
	if g := fc.Generation(); g != 1 {
		t.Errorf("generation after cold solve = %d, want 1", g)
	}
	x2, refac, err := fc.SolveCached(BackendCholeskyRCM, m, 0, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if refac {
		t.Error("repeat solve refactored despite unchanged values")
	}
	if g := fc.Generation(); g != 1 {
		t.Errorf("generation after warm solve = %d, want 1", g)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("warm cached solve differs at %d", i)
		}
	}
	// Changed values: must refactor and match a cold solve of the new
	// system exactly.
	m.Val[0] *= 3
	want, err := solveCholeskyRCM(m, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	x3, refac, err := fc.SolveCached(BackendCholeskyRCM, m, 0, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refac {
		t.Error("solve after value change did not refactor")
	}
	if g := fc.Generation(); g != 2 {
		t.Errorf("generation after value change = %d, want 2", g)
	}
	for i := range want {
		if x3[i] != want[i] {
			t.Fatalf("cached solve after value change differs at %d", i)
		}
	}
	// Iterative backends have nothing to cache.
	if _, _, err := fc.SolveCached(BackendCG, m, 0, b, nil, nil); err == nil {
		t.Error("SolveCached accepted an iterative backend")
	}
}

// TestFactorCachePassToken pins what a pass token buys and what it does
// not.  Values go uncompared only on an equal, non-zero token, which is
// shown by changing them behind an unchanged token: the hit must not
// notice.  A pass 0 call after a token factor still compares them and
// refactors when they differ, a failed Refactor leaves no token behind,
// and a factor of values with a NaN never rides one.
func TestFactorCachePassToken(t *testing.T) {
	for _, backend := range []string{BackendCholesky, BackendCholeskyEnv} {
		t.Run(backend, func(t *testing.T) {
			a := poisson2D(6)
			b := rhsFor(a)
			orig := a.Val[0]
			fc := &FactorCache{}
			solve := func(name string, pass uint64, wantRefactor, wantErr bool) Vector {
				t.Helper()
				x, refac, err := fc.SolveCached(backend, a, pass, b, nil, nil)
				if refac != wantRefactor || (err != nil) != wantErr {
					t.Fatalf("%s: refactored %v, err %v; want refactored %v, error %v", name, refac, err, wantRefactor, wantErr)
				}
				return x
			}
			entry := func() *factorEntry { return fc.entries[backend] }

			cold := solve("cold, token 5", 5, true, false)
			a.Val[0] *= 2
			if x := solve("changed behind token 5", 5, false, false); MaxAbsDiff(x, cold) != 0 {
				t.Fatal("a token hit did not answer from the factor it names")
			}
			solve("token 6", 6, true, false)
			solve("token 6 again", 6, false, false)
			a.Val[0] = orig
			solve("pass 0 after a token factor, values changed", 0, true, false)
			solve("pass 0, values unchanged", 0, false, false)
			a.Val[0] *= 2
			solve("pass 0 again, values changed", 0, true, false)
			a.Val[0] = orig
			solve("token 6 after a pass 0 factor", 6, true, false)
			solve("token 7, values unchanged", 7, false, false)
			if p := entry().pass; p != 7 {
				t.Fatalf("a value match left token %d, want 7", p)
			}

			a.Val[0] = -1
			solve("not positive definite, token 8", 8, true, true)
			if p := entry().pass; p != 0 {
				t.Fatalf("a failed Refactor left token %d behind", p)
			}
			a.Val[0] = orig
			solve("restored, token 8", 8, true, false)

			// A NaN the plan does not scatter (above its diagonal) factors
			// fine, and is still never reused.
			k := 0
			for k < len(a.Val) && entry().plan.scatter[k] >= 0 {
				k++
			}
			if k == len(a.Val) {
				t.Fatal("the plan scatters every entry")
			}
			a.Val[k] = math.NaN()
			solve("a NaN above the diagonal, token 9", 9, true, false)
			solve("the same NaN, token 9", 9, true, false)
			if !entry().nan {
				t.Fatal("the entry does not know of its NaN")
			}
		})
	}
	// Concurrent callers, each with tokens of its own for the same
	// values: every call compares and hits, and -race sees the entry's
	// token change hands under the cache's lock.
	t.Run("concurrent", func(t *testing.T) {
		a := poisson2D(6)
		b := rhsFor(a)
		fc := &FactorCache{}
		want, _, err := fc.SolveCached(BackendCholeskyEnv, a, 1, b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					x, _, err := fc.SolveCached(BackendCholeskyEnv, a, uint64(1+(g+i)%3), b, nil, nil)
					if err != nil || MaxAbsDiff(x, want) != 0 {
						t.Errorf("goroutine %d call %d: err %v, or another answer", g, i, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if g := fc.Generation(); g != 1 {
			t.Errorf("generation %d after concurrent calls on unchanged values, want 1", g)
		}
	})
}

// TestCholeskyEnvBackend checks the cholesky-env backend end to end:
// selectable by name, agrees with the banded baseline, rejects
// preconditioners, and honours cancellation.
func TestCholeskyEnvBackend(t *testing.T) {
	m := poisson2D(8)
	b := rhsFor(m)
	s, err := Backend(BackendCholeskyEnv)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.ToBanded().SolveCholesky(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, info, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, ref); d > 1e-10 {
		t.Errorf("cholesky-env differs from cholesky by %g", d)
	}
	if !info.Direct || !info.Refactored || info.Backend != BackendCholeskyEnv {
		t.Errorf("info = %+v", info)
	}
	if info.Residual > 1e-10 || math.IsNaN(info.Residual) {
		t.Errorf("residual = %g", info.Residual)
	}
	if _, _, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{Precond: "jacobi"}); err == nil {
		t.Error("cholesky-env accepted a preconditioner")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Solve(ctx, new(FactorCache), m, 0, b, nil, nil, IterOpts{}); err == nil {
		t.Error("cholesky-env ignored a cancelled context")
	}
}

// TestSolveCholeskyRCMColdAllocs: the one-shot cholesky-rcm solve (a
// fresh factor cache) does not materialise a permuted CSR from triplets,
// so its cold allocation count is a small constant (a pipeline that did
// paid 631 allocs on the bench plate).
func TestSolveCholeskyRCMColdAllocs(t *testing.T) {
	m := poisson2D(10)
	b := rhsFor(m)
	avg := testing.AllocsPerRun(10, func() {
		if _, err := solveCholeskyRCM(m, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 40 {
		t.Errorf("cold cholesky-rcm: %.0f allocs/op, want a small constant (<= 40)", avg)
	}
}

// TestFactorCacheRejectsPatternImpostor pins the review finding: two
// SPD systems with identical order and nnz but different sparsity
// patterns must not share a plan — the scatter map belongs to the
// pattern, and reusing it would silently mis-place values.
func TestFactorCacheRejectsPatternImpostor(t *testing.T) {
	mk := func(i, j int) *CSR {
		ts := []Triplet{{0, 0, 4}, {1, 1, 4}, {2, 2, 4}, {Row: i, Col: j, Val: 1}, {Row: j, Col: i, Val: 1}}
		m, err := NewCSRFromTriplets(3, ts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a1, a2 := mk(0, 1), mk(1, 2)
	if a1.NNZ() != a2.NNZ() {
		t.Fatalf("fixtures differ in nnz: %d vs %d", a1.NNZ(), a2.NNZ())
	}
	b := Vector{1, 2, 3}
	fc := &FactorCache{}
	if _, _, err := fc.SolveCached(BackendCholesky, a1, 0, b, nil, nil); err != nil {
		t.Fatal(err)
	}
	x, refac, err := fc.SolveCached(BackendCholesky, a2, 0, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refac {
		t.Error("pattern change did not rebuild the plan")
	}
	want, err := a2.ToBanded().SolveCholesky(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d != 0 {
		t.Errorf("impostor-pattern solve off by %g", d)
	}
	// The plan itself refuses a mismatched pattern outright.
	plan, err := NewDirectPlan(a1, PlanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Refactor(a2, nil); err == nil {
		t.Error("Refactor accepted a matrix with a different pattern")
	}
}

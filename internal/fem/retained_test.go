package fem

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// deepCopy returns a fresh model equal to m in everything a solve reads
// — nodes, new element objects, constraints — and sharing none of its
// retained state.
func deepCopy(t testing.TB, m *Model) *Model {
	t.Helper()
	c := NewModel(m.Name)
	c.Nodes = append([]NodeCoord(nil), m.Nodes...)
	for i, e := range m.Elements {
		switch e := e.(type) {
		case *Bar:
			cp := *e
			c.Elements = append(c.Elements, &cp)
		case *CST:
			cp := *e
			c.Elements = append(c.Elements, &cp)
		case interface{ copyElement() Element }:
			// The test-only element types of witness_test.go.
			c.Elements = append(c.Elements, e.copyElement())
		default:
			t.Fatalf("deepCopy: element %d is %T", i, e)
		}
	}
	c.fixed = slices.Clone(m.fixed)
	return c
}

// retainedK re-assembles m the way Solve does and returns its K, valid
// until the next assembly of m.
func retainedK(t *testing.T, m *Model) *linalg.CSR {
	t.Helper()
	m.retained.mu.Lock()
	defer m.retained.mu.Unlock()
	asm, err := m.assembleRetained()
	if err != nil {
		t.Fatal(err)
	}
	return asm.K
}

// csrIdentical asserts two systems have the same pattern and values,
// bit for bit.
func csrIdentical(t *testing.T, label string, a, b *linalg.CSR) {
	t.Helper()
	if a.N != b.N || len(a.Val) != len(b.Val) {
		t.Fatalf("%s: order/nnz %d/%d vs %d/%d", label, a.N, len(a.Val), b.N, len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d vs %d", label, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			t.Fatalf("%s: entry %d = (%d, %.17g) vs (%d, %.17g)", label, k, a.ColIdx[k], a.Val[k], b.ColIdx[k], b.Val[k])
		}
	}
}

// mixedModel is a small plate stiffened by one bar, so the mutation
// table has both element kinds to edit.
func mixedModel(t *testing.T) *Model {
	t.Helper()
	m, _ := cachePlate(t)
	if err := m.AddElement(&Bar{N1: 7, N2: 20, Mat: Steel()}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkspaceBoundToTopology is the enforcement of the Workspace
// contract, one row per way a model's topology can move under a
// workspace: the walk must notice, Workspace.Assemble must refuse the
// stale map, and the retained path must rebuild to exactly what a fresh
// Assemble gives.  Value-only edits are the control: no rebuild.
func TestWorkspaceBoundToTopology(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(t *testing.T, m *Model)
		rebuild bool
	}{
		{"AddNode", func(t *testing.T, m *Model) { m.AddNode(9, 9) }, true},
		{"AddElement", func(t *testing.T, m *Model) {
			if err := m.AddElement(&Bar{N1: 8, N2: 30, Mat: Steel()}); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"FixDOF", func(t *testing.T, m *Model) {
			if err := m.FixDOF(DOF(len(m.Nodes)-1, 1)); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"node index edited", func(t *testing.T, m *Model) {
			c := m.Elements[5].(*CST)
			c.N1 = (c.N1 + 12) % len(m.Nodes)
		}, true},
		{"bar end edited", func(t *testing.T, m *Model) {
			m.Elements[len(m.Elements)-1].(*Bar).N2 = 21
		}, true},
		{"element swapped for another kind", func(t *testing.T, m *Model) {
			c := m.Elements[2].(*CST)
			m.Elements[2] = &Bar{N1: c.N1, N2: c.N2, Mat: c.Mat}
		}, true},
		{"Elements re-sliced", func(t *testing.T, m *Model) { m.Elements = m.Elements[:len(m.Elements)-2] }, true},
		{"Elements reordered", func(t *testing.T, m *Model) {
			m.Elements[0], m.Elements[9] = m.Elements[9], m.Elements[0]
		}, true},
		{"coordinates and material edited", func(t *testing.T, m *Model) {
			m.Nodes[12].X += 0.125
			m.Elements[4].(*CST).Mat.E *= 3
			m.Elements[len(m.Elements)-1].(*Bar).Mat.A /= 2
		}, false},
		{"element replaced by an equal-topology object", func(t *testing.T, m *Model) {
			c := *m.Elements[6].(*CST)
			c.Mat.T *= 2
			m.Elements[6] = &c
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mixedModel(t)
			reg := obs.New()
			symbolic, reused := reg.Counter(obs.AssembleSymbolic), reg.Counter(obs.AssembleReused)
			m.Instrument(reg)
			ws, err := NewWorkspace(m)
			if err != nil {
				t.Fatal(err)
			}
			retainedK(t, m)
			if s, r := symbolic.Load(), reused.Load(); s != 1 || r != 0 {
				t.Fatalf("first assembly: symbolic %d reused %d, want 1 0", s, r)
			}

			tc.mutate(t, m)

			if topo, _ := ws.walk(m); topo == tc.rebuild {
				t.Errorf("walk: topo = %v after mutation", topo)
			}
			_, err = ws.Assemble()
			if tc.rebuild && !errors.Is(err, ErrModel) {
				t.Errorf("stale Workspace.Assemble: err = %v, want ErrModel", err)
			}
			if !tc.rebuild && err != nil {
				t.Errorf("Workspace.Assemble after a value edit: %v", err)
			}
			got := retainedK(t, m)
			wantSym, wantReused := int64(1), int64(1)
			if tc.rebuild {
				wantSym, wantReused = 2, 0
			}
			if s, r := symbolic.Load(), reused.Load(); s != wantSym || r != wantReused {
				t.Errorf("after mutation: symbolic %d reused %d, want %d %d", s, r, wantSym, wantReused)
			}
			fresh, err := Assemble(deepCopy(t, m))
			if err != nil {
				t.Fatal(err)
			}
			csrIdentical(t, "retained vs fresh", got, fresh.K)
		})
	}
}

// TestWorkspaceRejectsOutOfRangeNode pins the edit AddElement would have
// refused: a node index pushed out of range through the exported field
// is an ErrModel from the rebuild, not an index panic.
func TestWorkspaceRejectsOutOfRangeNode(t *testing.T) {
	m, ls := cachePlate(t)
	ctx := context.Background()
	if _, err := Solve(ctx, m, ls, SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	m.Elements[1].(*CST).N3 = len(m.Nodes)
	if _, err := Solve(ctx, m, ls, SolveOpts{}); !errors.Is(err, ErrModel) {
		t.Fatalf("solve with out-of-range node: err = %v, want ErrModel", err)
	}
	m.Elements[1].(*CST).N3 = -1
	if _, err := NewWorkspace(m); !errors.Is(err, ErrModel) {
		t.Fatalf("NewWorkspace with negative node: err = %v, want ErrModel", err)
	}
}

// retainedSeeds is the fixed seed list of the differential property
// test; a failure prints its seed for replay.
var retainedSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597}

// TestRetainedSolveMatchesFreshModel is the seeded differential
// property: over random interleavings of value edits, topology edits
// and solves on random grids and trusses, a solve through the model's
// retained assembly equals — bitwise in U, Residual, Stats.Flops and
// Refactored — a solve of a deep-copied fresh model assembled one-shot,
// with Refactored predicted from the two-walk oracle (differential.solve).
// Some steps replace the model object instead of editing it, the way
// generate and retrieve do: the replacement adopts the retained assembly
// and factors, and a same-topology one must solve without a symbolic
// phase — or, unedited, a refactor.
func TestRetainedSolveMatchesFreshModel(t *testing.T) {
	backends := []string{linalg.BackendCholesky, linalg.BackendCholeskyRCM, linalg.BackendCholeskyEnv, linalg.BackendCG}
	solved, failed, warm, adopted := 0, 0, 0, 0
	var skipped int64
	defer func() {
		// Guard against a vacuous run: most comparisons must be real
		// solves, a good share of them warm ones, some replacements must
		// have inherited a plan, and — four backends a step — most solves
		// must have found the matrix unchanged and skipped the numeric
		// assembly.
		if solved < 4*failed || warm < solved/6 || adopted < len(retainedSeeds)/2 || skipped < int64(solved)/2 {
			t.Errorf("%d solved (%d warm, %d unchanged), %d failed alike, %d plans adopted: the edits no longer exercise the retained path", solved, warm, skipped, failed, adopted)
		}
	}()
	for _, seed := range retainedSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := randomModel(t, rng)
			ls := randomLoads(rng, m)
			d := newDifferential()
			symbolic := d.reg.Counter(obs.AssembleSymbolic)
			defer func() { skipped += d.unchanged.Load() }()
			for step := 0; step < 12; step++ {
				var what string
				// wantSymbolic is the symbolic count a replacement that must
				// inherit its plan may not exceed; -1 when the step says
				// nothing about it.
				wantSymbolic := int64(-1)
				if rng.Intn(4) == 0 {
					next := deepCopy(t, m)
					what = "replace, same topology"
					if rng.Intn(2) == 0 {
						next, what = randomModel(t, rng), "replace, another model"
						ls = randomLoads(rng, next)
					} else if m.retained.ws != nil {
						wantSymbolic = symbolic.Load()
						adopted++
					}
					next.AdoptAssembly(m)
					if m.retained.ws != nil {
						t.Fatalf("seed %d step %d: the replaced model kept its workspace", seed, step)
					}
					m = next // and the factors came along
				} else {
					what = mutateRandomly(t, rng, m, d)
				}
				for _, backend := range backends {
					label := fmt.Sprintf("seed %d step %d (%s) backend %s", seed, step, what, backend)
					if _, err := d.solve(t, label, m, ls, backend); err != nil {
						failed++
						continue
					}
					solved++
					if !d.sol.Refactored {
						warm++
					}
				}
				if wantSymbolic >= 0 && symbolic.Load() != wantSymbolic {
					t.Fatalf("seed %d step %d (%s): symbolic %d, want %d — the inherited plan was not used",
						seed, step, what, symbolic.Load(), wantSymbolic)
				}
			}
		})
	}
}

// randomLoads draws three point loads on m.
func randomLoads(rng *rand.Rand, m *Model) *LoadSet {
	ls := &LoadSet{Name: "rand"}
	for i := 0; i < 3; i++ {
		ls.Entries = append(ls.Entries, LoadEntry{DOF: rng.Intn(m.NumDOF()), Value: 1000 * (rng.Float64() - 0.5)})
	}
	return ls
}

// mutateRandomly applies one random edit to m — or none, so some steps
// are plain warm re-solves — and names it for the failure message.
// Edits keep the structure stable (nothing is removed that the
// generators put there), so most steps solve; the rest must fail the
// same way on both sides.  A touch goes through d, the differential m
// is solved through.
func mutateRandomly(t *testing.T, rng *rand.Rand, m *Model, d *differential) string {
	t.Helper()
	bar := func(n1, n2 int) string {
		if n1 == n2 {
			return "none"
		}
		if err := m.AddElement(&Bar{N1: n1, N2: n2, Mat: Steel()}); err != nil {
			t.Fatal(err)
		}
		return "add bar"
	}
	switch rng.Intn(12) {
	case 0:
		switch e := m.Elements[rng.Intn(len(m.Elements))].(type) {
		case *Bar:
			e.Mat.E *= 0.5 + rng.Float64()
		case *CST:
			e.Mat.E *= 0.5 + rng.Float64()
		}
		return "material"
	case 1:
		n := rng.Intn(len(m.Nodes))
		m.Nodes[n].X += 0.02 * (rng.Float64() - 0.5)
		m.Nodes[n].Y += 0.02 * (rng.Float64() - 0.5)
		return "coordinate"
	case 2:
		return bar(rng.Intn(len(m.Nodes)), rng.Intn(len(m.Nodes)))
	case 3:
		if err := m.FixDOF(rng.Intn(m.NumDOF())); err != nil {
			t.Fatal(err)
		}
		return "fix dof"
	case 4:
		// A new node braced back to two existing ones.
		a, b := rng.Intn(len(m.Nodes)), rng.Intn(len(m.Nodes))
		if a == b {
			return "none"
		}
		n := m.AddNode(m.Nodes[a].X+1+rng.Float64(), m.Nodes[b].Y+1+rng.Float64())
		bar(n, a)
		bar(n, b)
		return "add node"
	case 5:
		// Drop the last element if it is a stiffener added above.
		last := len(m.Elements) - 1
		if b, ok := m.Elements[last].(*Bar); ok && b.Mat == Steel() && last > 8 {
			m.Elements = m.Elements[:last]
			return "drop last bar"
		}
		return "none"
	case 6:
		// Same topology, new element object, new values.
		i := rng.Intn(len(m.Elements))
		switch e := m.Elements[i].(type) {
		case *Bar:
			cp := *e
			cp.Mat.A *= 1.5
			m.Elements[i] = &cp
		case *CST:
			cp := *e
			cp.Mat.T *= 1.5
			m.Elements[i] = &cp
		}
		return "replace element object"
	case 7:
		d.touch(m)
		return "touch"
	}
	return "none"
}

// TestConcurrentSolvesOfOneModel runs two goroutines solving one *Model
// with different load sets: the retained assembly's value buffer is
// shared, so each must still get the answer it gets alone.  Run under
// -race.
func TestConcurrentSolvesOfOneModel(t *testing.T) {
	m, lsA := cachePlate(t)
	lsB := &LoadSet{Name: "other", Entries: []LoadEntry{{DOF: DOF(len(m.Nodes)-1, 0), Value: 750}}}
	ctx := context.Background()
	loads := []*LoadSet{lsA, lsB}
	backends := []string{linalg.BackendCholeskyEnv, linalg.BackendCG}
	var want [2]*Solution
	for g, ls := range loads {
		fresh, _ := cachePlate(t)
		sol, err := Solve(ctx, fresh, ls, SolveOpts{Backend: backends[g]})
		if err != nil {
			t.Fatal(err)
		}
		want[g] = sol
	}
	var wg sync.WaitGroup
	for g := range loads {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sol, err := Solve(ctx, m, loads[g], SolveOpts{Backend: backends[g]})
				if err != nil {
					t.Error(err)
					return
				}
				if sol.Residual != want[g].Residual {
					t.Errorf("goroutine %d solve %d: residual %g, alone %g", g, i, sol.Residual, want[g].Residual)
					return
				}
				for d := range sol.U {
					if sol.U[d] != want[g].U[d] {
						t.Errorf("goroutine %d solve %d: U[%d] differs from the single-threaded answer", g, i, d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmSolveAllocationCeiling pins the warm path's allocation count
// on the 40×24 plate: with the symbolic phase retained a re-solve
// allocates its result, the Solution and its U, and nothing else (the
// symbolic phase alone was thousands; the load, the reduced solution and
// the residual are the workspace's scratch), and SolveInto over the
// solution the previous solve replaced allocates nothing, warm or after a
// change of modulus.  The walk that proves the plate unchanged allocates
// nothing, and so does a recording re-assembly after a change of modulus
// — every CST missing the memo.  Stress recovery's count is
// TestStressesAllocations'.
func TestWarmSolveAllocationCeiling(t *testing.T) {
	m, ls := largePlate(t)
	ctx := context.Background()
	opts := SolveOpts{Backend: linalg.BackendCholeskyEnv}
	cur, err := Solve(ctx, m, ls, opts)
	if err != nil {
		t.Fatal(err)
	}
	var spare *Solution
	// solveInto solves into the spare, as a session's workspace entry
	// does, and reports whether the factor was recomputed.
	solveInto := func() bool {
		got, err := SolveInto(ctx, m, ls, opts, spare)
		if err != nil || (spare != nil && got != spare) {
			t.Fatalf("SolveInto: err %v, or a Solution other than its destination", err)
		}
		cur, spare = got, cur
		return got.Refactored
	}
	solveInto()
	if n := testing.AllocsPerRun(10, func() {
		m.retained.mu.Lock()
		defer m.retained.mu.Unlock()
		if topo, same := m.retained.ws.walk(m); !topo || !same {
			t.Fatalf("walk of the unchanged plate: topo %v, same %v", topo, same)
		}
	}); n != 0 {
		t.Errorf("the walk allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := Solve(ctx, m, ls, opts); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("warm Solve allocates %.0f times, want 2 (the Solution and its U)", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if solveInto() {
			t.Fatal("the unchanged plate was refactored")
		}
	}); n != 0 {
		t.Errorf("warm SolveInto allocates %.0f times, want 0", n)
	}
	e := Steel().E
	remodulus := func() {
		e++
		for _, el := range m.Elements {
			el.(*CST).Mat.E = e
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		remodulus()
		m.retained.mu.Lock()
		defer m.retained.mu.Unlock()
		if topo, same := m.retained.ws.walk(m); !topo || same {
			t.Fatalf("a new modulus: walk topo %v, same %v", topo, same)
		}
		if _, err := m.assembleRetained(); err != nil {
			t.Fatal(err)
		}
		if m.retained.ws.pass == 0 {
			t.Fatal("the re-assembly recorded nothing")
		}
	}); n != 0 {
		t.Errorf("re-assembly after a change of modulus allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		remodulus()
		if !solveInto() {
			t.Fatal("a new modulus was not refactored")
		}
	}); n != 0 {
		t.Errorf("SolveInto after a change of modulus allocates %.0f times, want 0", n)
	}
}

// TestAdoptedAssemblyIsCheckedBeforeReuse pins that a plan handed over
// by AdoptAssembly is trusted exactly as far as one the model built
// itself: the walk runs against the new model before the first scatter,
// so a replacement that differs in any part of the topology rebuilds
// (skipping the check would scatter through the wrong map and these
// rows would not count a symbolic phase), and one that differs only in
// values reuses the very same pattern arrays.
func TestAdoptedAssemblyIsCheckedBeforeReuse(t *testing.T) {
	grid := func(nx, ny int, e float64) *Model {
		mat := Steel()
		mat.E = e
		m, err := RectGrid("plate", RectGridOpts{NX: nx, NY: ny, W: 6, H: 4, Mat: mat, ClampLeft: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		next    func() *Model
		rebuild bool
	}{
		{"same grid, new modulus", func() *Model { return grid(6, 4, 70000) }, false},
		{"larger grid", func() *Model { return grid(8, 6, 200000) }, true},
		{"smaller grid", func() *Model { return grid(3, 2, 200000) }, true},
		// 35 nodes and 48 elements either way: only the constraint set
		// and the connectivity tell them apart.
		{"transposed grid", func() *Model { return grid(4, 6, 200000) }, true},
		{"one more fixed dof", func() *Model {
			m := grid(6, 4, 200000)
			if err := m.FixDOF(DOF(len(m.Nodes)-1, 0)); err != nil {
				t.Fatal(err)
			}
			return m
		}, true},
		{"elements reordered", func() *Model {
			m := grid(6, 4, 200000)
			m.Elements[0], m.Elements[9] = m.Elements[9], m.Elements[0]
			return m
		}, true},
		{"truss", func() *Model {
			m, err := CantileverTruss("plate", 4, 1000, 800, Steel())
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := grid(6, 4, 200000)
			reg := obs.New()
			symbolic, reused := reg.Counter(obs.AssembleSymbolic), reg.Counter(obs.AssembleReused)
			prev.Instrument(reg)
			pattern := retainedK(t, prev).RowPtr

			next := tc.next()
			next.Instrument(reg)
			next.AdoptAssembly(prev)
			if prev.retained.ws != nil || next.retained.ws == nil {
				t.Fatalf("AdoptAssembly shared or dropped the workspace: prev %v next %v", prev.retained.ws != nil, next.retained.ws != nil)
			}
			got := retainedK(t, next)
			wantSym, wantReused := int64(1), int64(1)
			if tc.rebuild {
				wantSym, wantReused = 2, 0
			}
			if s, r := symbolic.Load(), reused.Load(); s != wantSym || r != wantReused {
				t.Errorf("symbolic %d reused %d, want %d %d", s, r, wantSym, wantReused)
			}
			if same := &got.RowPtr[0] == &pattern[0]; same == tc.rebuild {
				t.Errorf("pattern arrays shared with the replaced model's = %v", same)
			}
			if next.retained.ws.m != next {
				t.Error("the workspace still evaluates the replaced model")
			}
			fresh, err := Assemble(deepCopy(t, next))
			if err != nil {
				t.Fatal(err)
			}
			csrIdentical(t, "adopted vs fresh", got, fresh.K)
		})
	}
}

// TestAdoptAssemblyEdgeCases covers the hand-overs that must be no-ops:
// a model re-put over itself, a predecessor that never solved, and a
// successor that already has a plan of its own.
func TestAdoptAssemblyEdgeCases(t *testing.T) {
	solvedPlate := func() *Model {
		m, _ := cachePlate(t)
		retainedK(t, m)
		return m
	}
	m := solvedPlate()
	ws := m.retained.ws
	m.AdoptAssembly(m)
	if m.retained.ws != ws {
		t.Error("adopting from itself lost the workspace")
	}
	unsolved, _ := cachePlate(t)
	m.AdoptAssembly(unsolved)
	if m.retained.ws != ws {
		t.Error("adopting from an unsolved model lost the workspace")
	}
	other := solvedPlate()
	m.AdoptAssembly(other)
	if m.retained.ws != ws || other.retained.ws != nil {
		t.Error("a model with its own plan must keep it, and the predecessor is emptied either way")
	}
}

// TestSolutionOfReplacedModelIsRejected is the regression for the
// daemon-killing panic: the workspace keeps a model's last solution
// when the model is regenerated under the same name, and recovering
// stresses (or reactions) for the new grid from the old displacements
// indexed past U.
func TestSolutionOfReplacedModelIsRejected(t *testing.T) {
	grid := func(nx, ny int) (*Model, *LoadSet) {
		o := RectGridOpts{NX: nx, NY: ny, W: 4, H: 3, Mat: Steel(), ClampLeft: true}
		m, err := RectGrid("p", o)
		if err != nil {
			t.Fatal(err)
		}
		return m, EndLoad("l", o, 0, -500)
	}
	for _, tc := range []struct {
		name             string
		nx, ny, nx2, ny2 int
	}{
		{"larger replacement", 4, 3, 8, 6},
		{"smaller replacement", 8, 6, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, ls := grid(tc.nx, tc.ny)
			sol, err := Solve(context.Background(), m, ls, SolveOpts{})
			if err != nil {
				t.Fatal(err)
			}
			next, _ := grid(tc.nx2, tc.ny2)
			if _, err := Stresses(next, sol); !errors.Is(err, ErrModel) {
				t.Errorf("Stresses with the replaced model's solution: err = %v, want ErrModel", err)
			}
			if _, err := Reactions(next, sol); !errors.Is(err, ErrModel) {
				t.Errorf("Reactions with the replaced model's solution: err = %v, want ErrModel", err)
			}
			if _, err := Stresses(m, sol); err != nil {
				t.Errorf("Stresses with the model's own solution: %v", err)
			}
		})
	}
}

// TestNewWorkspaceAllocationCeiling pins the cold path on the 40×24
// plate: the symbolic phase counts first and allocates each array once,
// where a scatter slice per element and grown coordinate lists cost
// ~2000 allocations.  It also allocates at most 1.8 MiB in all and keeps
// at most 0.8 MiB live once the collector has run with the workspace
// alive (1.58 MiB and 0.78 MiB): []int coordinates, two []int sort
// buffers, a scatter map beside the workspace's own and a ColIdx at the
// coordinate count made that 3.74 MiB and 1.10 MiB.
func TestNewWorkspaceAllocationCeiling(t *testing.T) {
	const allocCeiling, keptCeiling = 18 << 20 / 10, 8 << 20 / 10
	m, _ := largePlate(t)
	if n := testing.AllocsPerRun(5, func() {
		if _, err := NewWorkspace(m); err != nil {
			t.Fatal(err)
		}
	}); n > 24 {
		t.Errorf("NewWorkspace allocates %.0f times, ceiling 24", n)
	}
	var ws *Workspace
	alloc, kept := measureAlloc(func() {
		var err error
		if ws, err = NewWorkspace(m); err != nil {
			t.Fatal(err)
		}
	})
	if alloc > allocCeiling || kept > keptCeiling {
		t.Errorf("NewWorkspace allocates %d B and keeps %d B; ceilings %d B and %d B", alloc, kept, allocCeiling, keptCeiling)
	}
	t.Logf("NewWorkspace allocates %d B and keeps %d B", alloc, kept)
	runtime.KeepAlive(ws)
}

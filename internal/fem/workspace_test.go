package fem

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// AssembleTriplets is the reference assembly path: element stiffnesses
// append to a triplet list that is then sorted into CSR form, with
// zero-valued entries skipped.  It is kept for differential testing and
// benchmarking against the Workspace scatter path; production callers
// use Assemble.  On shared entries the two paths agree bitwise (both
// sum contributions in element order); the Workspace pattern may store
// additional explicit zeros where an element stiffness entry is exactly
// zero.
func AssembleTriplets(m *Model) (*Assembled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	free, index := m.FreeDOFs()
	var ts []linalg.Triplet
	st := linalg.Stats{}
	var sc stiffScratch
	for ei, e := range m.Elements {
		dofs := ElementDOFs(e)
		ke, err := sc.stiffness(m, e, len(dofs))
		if err != nil {
			return nil, fmt.Errorf("fem: element %d: %w", ei, err)
		}
		for i, gi := range dofs {
			ri := index[gi]
			if ri < 0 {
				continue
			}
			for j, gj := range dofs {
				rj := index[gj]
				if rj < 0 {
					continue
				}
				v := ke.At(i, j)
				if v != 0 {
					ts = append(ts, linalg.Triplet{Row: ri, Col: rj, Val: v})
					st.Flops++
				}
			}
		}
	}
	k, err := linalg.NewCSRFromTriplets(len(free), ts)
	if err != nil {
		return nil, err
	}
	return &Assembled{K: k, Free: free, Index: index, Stats: st}, nil
}

// Reduce gathers a full dof vector into reduced form.
func (a *Assembled) Reduce(full linalg.Vector) linalg.Vector {
	out := linalg.NewVector(len(a.Free))
	for ri, d := range a.Free {
		out[ri] = full[d]
	}
	return out
}

// csrEqualExact asserts two assembled systems agree element-for-element
// with no tolerance (explicit zeros in one pattern but not the other are
// fine: At reads both as 0).
func csrEqualExact(t *testing.T, label string, a, b *linalg.CSR) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: order %d vs %d", label, a.N, b.N)
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if av, bv := a.At(i, j), b.At(i, j); av != bv {
				t.Fatalf("%s: (%d,%d) = %g vs %g", label, i, j, av, bv)
			}
		}
	}
}

// randomModel builds a randomized mesh: a plate or truss generator with
// random dimensions, then jittered node coordinates (same topology,
// perturbed values) and occasionally an extra random stiffening bar.
func randomModel(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	var m *Model
	var err error
	if rng.Intn(2) == 0 {
		o := RectGridOpts{
			NX: 2 + rng.Intn(5), NY: 2 + rng.Intn(4),
			W: 1 + 4*rng.Float64(), H: 1 + 3*rng.Float64(),
			Mat: Steel(), ClampLeft: true,
		}
		m, err = RectGrid("rand-plate", o)
	} else {
		m, err = CantileverTruss("rand-truss", 2+rng.Intn(5), 500+500*rng.Float64(), 800, Steel())
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Nodes {
		m.Nodes[i].X += 0.05 * (rng.Float64() - 0.5)
		m.Nodes[i].Y += 0.05 * (rng.Float64() - 0.5)
	}
	if rng.Intn(2) == 0 && len(m.Nodes) >= 4 {
		n1, n2 := rng.Intn(len(m.Nodes)), rng.Intn(len(m.Nodes))
		if n1 != n2 {
			if err := m.AddElement(&Bar{N1: n1, N2: n2, Mat: Steel()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestWorkspaceMatchesTripletAssembly is the differential property of
// the numeric phase: on the fixed plate and bar fixtures and on
// randomized meshes, the workspace scatter path must agree bitwise with
// the triplet reference path (both sum element contributions in element
// order), through the one-shot Assemble and through a kept workspace
// assembled twice.
func TestWorkspaceMatchesTripletAssembly(t *testing.T) {
	plate, err := RectGrid("plate", RectGridOpts{NX: 6, NY: 4, W: 6, H: 4, Mat: Steel(), ClampLeft: true})
	if err != nil {
		t.Fatal(err)
	}
	truss, err := CantileverTruss("truss", 5, 1000, 800, Steel())
	if err != nil {
		t.Fatal(err)
	}
	models := []*Model{plate, truss}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		models = append(models, randomModel(t, rng))
	}
	for _, m := range models {
		ref, err := AssembleTriplets(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Assemble(m)
		if err != nil {
			t.Fatal(err)
		}
		csrEqualExact(t, m.Name, ref.K, got.K)
		if len(got.Free) != len(ref.Free) {
			t.Errorf("%s: free dof count %d vs %d", m.Name, len(got.Free), len(ref.Free))
		}
		ws, err := NewWorkspace(m)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			asm, err := ws.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			csrEqualExact(t, m.Name, ref.K, asm.K)
		}
	}
}

// TestWorkspaceReuseTracksValueChanges re-assembles through one
// workspace after node coordinates move: same topology, new values.  The
// result must match a from-scratch build of the moved model exactly.
func TestWorkspaceReuseTracksValueChanges(t *testing.T) {
	m, err := RectGrid("mv", RectGridOpts{NX: 4, NY: 3, W: 4, H: 3, Mat: Steel(), ClampLeft: true})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWorkspace(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Assemble(); err != nil {
		t.Fatal(err)
	}
	for i := range m.Nodes {
		m.Nodes[i].X *= 1.1
		m.Nodes[i].Y *= 0.9
	}
	reused, err := ws.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := AssembleTriplets(m)
	if err != nil {
		t.Fatal(err)
	}
	csrEqualExact(t, "moved", fresh.K, reused.K)
}

// TestWorkspaceAssembleOnceSolveMany covers the retained-workspace
// workflow end to end: one assembly feeding several load sets through
// solveUnproven must match independent Solve calls.
func TestWorkspaceAssembleOnceSolveMany(t *testing.T) {
	o := RectGridOpts{NX: 5, NY: 3, W: 5, H: 3, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("many", o)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWorkspace(m)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := ws.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, ls := range []*LoadSet{
		EndLoad("a", o, 0, -1000),
		EndLoad("b", o, 500, 0),
		EndLoad("c", o, -200, 300),
	} {
		shared, err := solveUnproven(m, asm, ls, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		independent, err := Solve(ctx, m, ls, SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := linalg.MaxAbsDiff(shared.U, independent.U); d != 0 {
			t.Errorf("load set %d: shared assembly differs by %g", i, d)
		}
	}
}

// TestWorkspaceRejectsInvalidModel mirrors Assemble's validation.
func TestWorkspaceRejectsInvalidModel(t *testing.T) {
	if _, err := NewWorkspace(NewModel("empty")); err == nil {
		t.Error("workspace built over empty model")
	}
}

// TestWorkspaceScatterNamesItsEntry: every element entry with both dofs
// free scatters to the one slot of K holding its (row, col), and every
// entry with a fixed dof is -1, on the clamped plate and on random
// models.
func TestWorkspaceScatterNamesItsEntry(t *testing.T) {
	plate, _ := largePlate(t)
	models := []*Model{plate}
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 10; i++ {
		models = append(models, randomModel(t, rng))
	}
	for _, m := range models {
		ws, err := NewWorkspace(m)
		if err != nil {
			t.Fatal(err)
		}
		p, s := ws.pat, ws.scat
		for ei, e := range m.Elements {
			dofs := ElementDOFs(e)
			nd := len(dofs)
			for i, gi := range dofs {
				for j, gj := range dofs {
					ri, rj, got := ws.index[gi], ws.index[gj], s[i*nd+j]
					if ri < 0 || rj < 0 {
						if got != -1 {
							t.Fatalf("%s: element %d entry (%d,%d) has a fixed dof but scatters to %d", m.Name, ei, i, j, got)
						}
						continue
					}
					want := -1
					for k := p.RowPtr[ri]; k < p.RowPtr[ri+1]; k++ {
						if p.ColIdx[k] == rj {
							want = k
						}
					}
					if int(got) != want {
						t.Fatalf("%s: element %d entry (%d,%d) scatters to %d, the slot of (%d,%d) is %d", m.Name, ei, i, j, got, ri, rj, want)
					}
				}
			}
			s = s[nd*nd:]
		}
	}
}

// measureAlloc reports what f allocates (MemStats.TotalAlloc around the
// call) and what of it is live after a collection (HeapAlloc), for an f
// that keeps its results reachable from its caller.
func measureAlloc(f func()) (alloc, kept int64) {
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&mid)
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(mid.TotalAlloc - before.TotalAlloc), int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

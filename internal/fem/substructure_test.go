package fem

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/navm"
	"repro/internal/obs"
)

func plateAndLoad(t *testing.T, nx, ny int) (*Model, RectGridOpts, *LoadSet) {
	t.Helper()
	o := RectGridOpts{NX: nx, NY: ny, W: float64(nx), H: float64(ny), Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("sub-plate", o)
	if err != nil {
		t.Fatal(err)
	}
	return m, o, EndLoad("tip", o, 200, -800)
}

func TestPartitionByXClassifiesDOFs(t *testing.T) {
	m, _, _ := plateAndLoad(t, 8, 4)
	s, err := PartitionByX(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Subs) != 4 {
		t.Fatalf("subs = %d", len(s.Subs))
	}
	// Every element appears exactly once.
	count := 0
	for _, sub := range s.Subs {
		count += len(sub.Elems)
	}
	if count != len(m.Elements) {
		t.Errorf("elements covered %d of %d", count, len(m.Elements))
	}
	// Interface dofs are shared by construction; internal dofs of
	// different substructures are disjoint.
	seen := map[int]int{}
	for si, sub := range s.Subs {
		for _, d := range sub.Internal {
			if prev, dup := seen[d]; dup {
				t.Errorf("dof %d internal to substructures %d and %d", d, prev, si)
			}
			seen[d] = si
		}
	}
	// No internal dof is fixed or on the interface.
	iface := map[int]bool{}
	for _, d := range s.Interface {
		iface[d] = true
	}
	for _, sub := range s.Subs {
		for _, d := range sub.Internal {
			if m.Fixed(d) || iface[d] {
				t.Errorf("dof %d misclassified as internal", d)
			}
		}
	}
	if len(s.Interface) == 0 {
		t.Error("no interface dofs in a 4-way split")
	}
}

func TestPartitionByXErrors(t *testing.T) {
	m, _, _ := plateAndLoad(t, 4, 2)
	if _, err := PartitionByX(m, 0); err == nil {
		t.Error("0 bands accepted")
	}
	if _, err := PartitionByX(m, 100); err == nil {
		t.Error("bands with empty substructures accepted")
	}
	empty := NewModel("e")
	if _, err := PartitionByX(empty, 2); err == nil {
		t.Error("empty model accepted")
	}
}

func TestSubstructuredMatchesDirectSolve(t *testing.T) {
	m, _, ls := plateAndLoad(t, 8, 4)
	ref, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		s, err := PartitionByX(m, k)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveSubstructured(context.Background(), m, s, ls, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		scale := linalg.NormInf(ref.U)
		if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-8*scale {
			t.Errorf("k=%d: substructured differs from direct by %g (scale %g)", k, d, scale)
		}
	}
}

func TestSubstructuredTrussMatchesDirect(t *testing.T) {
	m, err := CantileverTruss("truss", 6, 500, 400, Material{E: 200000, A: 50})
	if err != nil {
		t.Fatal(err)
	}
	ls := TipLoad("tip", 6, 5000)
	ref, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := PartitionByX(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSubstructured(context.Background(), m, s, ls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-8*linalg.NormInf(ref.U) {
		t.Errorf("truss substructured differs by %g", d)
	}
}

func TestSubstructuredWithLoadOnInterface(t *testing.T) {
	// A load landing exactly on an interface dof must be counted once.
	m, _, _ := plateAndLoad(t, 4, 2)
	s, err := PartitionByX(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls := &LoadSet{Name: "iface", Entries: []LoadEntry{{DOF: s.Interface[0], Value: 123}}}
	ref, err := Solve(context.Background(), m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSubstructured(context.Background(), m, s, ls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-8*linalg.NormInf(ref.U) {
		t.Errorf("interface load differs by %g", d)
	}
}

func TestSubstructuredParallelCostAccounting(t *testing.T) {
	m, _, ls := plateAndLoad(t, 8, 4)
	cfg := arch.DefaultConfig()
	cfg.Clusters = 4
	cfg.PEsPerCluster = 3
	rt := navm.NewRuntime(arch.MustNew(cfg))
	reg := obs.New()
	rt.AttachInstrumentation(reg)
	s, err := PartitionByX(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSubstructured(context.Background(), m, s, ls, rt)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Solve(context.Background(), m, ls, SolveOpts{})
	if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-8*linalg.NormInf(ref.U) {
		t.Errorf("parallel-accounted solve differs by %g", d)
	}
	if rt.Machine().Makespan() == 0 {
		t.Error("no simulated time recorded")
	}
	if rt.Machine().Network().TotalMessages() == 0 {
		t.Error("interface gather produced no network traffic")
	}
	// Every cycle charged to a PE, the condensations' included, is
	// counted in arch.cycles.
	if got, busy := reg.Counter(obs.ARCHCycles).Load(), rt.Machine().TotalBusy(); got != busy {
		t.Errorf("arch.cycles = %d, but the PEs were busy %d cycles", got, busy)
	}
}

func TestSubstructureParallelSpeedupShape(t *testing.T) {
	// E3's shape: condensing K substructures on K PEs beats condensing
	// them on one PE (the per-substructure work is independent).
	m, _, ls := plateAndLoad(t, 12, 4)
	run := func(clusters int) int64 {
		cfg := arch.DefaultConfig()
		cfg.Clusters = clusters
		cfg.PEsPerCluster = 3
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		s, err := PartitionByX(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SolveSubstructured(context.Background(), m, s, ls, rt); err != nil {
			t.Fatal(err)
		}
		return rt.Machine().Makespan()
	}
	// 1 cluster of 2 workers vs 4 clusters of 2 workers.
	slow := run(1)
	fast := run(4)
	if fast >= slow {
		t.Errorf("4-cluster condensation (%d) not faster than 1-cluster (%d)", fast, slow)
	}
}

// cancelAfter is a context that reports itself cancelled from its n-th
// Err call on: the condensation fan-out asks once per substructure, so a
// small n cancels it with condensations done, running and not started.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSubstructuredSolveIgnoresGOMAXPROCS: the condensation pool is as
// wide as GOMAXPROCS and nobody sets it, so what has to hold is that the
// width is invisible — the displacements are bitwise the same on one
// host thread and on two — and that a cancellation arriving in the
// middle of the fan-out is reported, whichever worker meets it.
func TestSubstructuredSolveIgnoresGOMAXPROCS(t *testing.T) {
	plate, _, plateLoad := plateAndLoad(t, 32, 8)
	truss, err := CantileverTruss("truss", 6, 500, 400, Material{E: 200000, A: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		m    *Model
		ls   *LoadSet
		k    int
	}{
		{"plate 32x8, 8 substructures", plate, plateLoad, 8},
		{"truss, 3 substructures", truss, TipLoad("tip", 6, 5000), 3},
	} {
		s, err := PartitionByX(tc.m, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		var ref linalg.Vector
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			ctx := &cancelAfter{Context: context.Background()}
			ctx.left.Store(int64(tc.k / 2))
			if _, err := SolveSubstructured(ctx, tc.m, s, tc.ls, nil); !errors.Is(err, errs.ErrCancelled) {
				t.Errorf("%s cancelled mid-fan-out at GOMAXPROCS %d: err = %v, want ErrCancelled", tc.name, procs, err)
			}
			sol, err := SolveSubstructured(context.Background(), tc.m, s, tc.ls, nil)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if ref == nil {
				ref = sol.U
			}
			for i, v := range sol.U {
				if math.Float64bits(v) != math.Float64bits(ref[i]) {
					t.Fatalf("%s: u[%d] = %.17g at GOMAXPROCS %d, %.17g at 1", tc.name, i, v, procs, ref[i])
				}
			}
		}
	}
}

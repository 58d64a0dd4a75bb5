package linalg_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/linalg"
)

// meshSystem is the reduced system K·u = f of a generated mesh.
type meshSystem struct {
	name string
	k    *linalg.CSR
	rhs  linalg.Vector
}

// plate is an NX×NY clamped steel plate, jittered by 0.25 when jitter is
// set.
func plate(nx, ny int, jitter bool) (string, fem.RectGridOpts) {
	o := fem.RectGridOpts{NX: nx, NY: ny, W: float64(nx), H: float64(ny), Mat: fem.Steel(), ClampLeft: true}
	name := fmt.Sprintf("plate-%dx%d", nx, ny)
	if jitter {
		o.Jitter, o.Seed = 0.25, 19
		name += "-jittered"
	}
	return name, o
}

// meshSystems assembles the named plates, and a 30-bay truss when truss
// is set.
func meshSystems(t testing.TB, plates [][2]int, truss bool) []meshSystem {
	t.Helper()
	var out []meshSystem
	add := func(name string, m *fem.Model, ls *fem.LoadSet, err error) {
		if err != nil {
			t.Fatal(err)
		}
		asm, err := fem.Assemble(m)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := m.RHS(ls, asm.Index, len(asm.Free))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, meshSystem{name, asm.K, rhs})
	}
	for _, p := range plates {
		for _, jitter := range []bool{false, true} {
			name, o := plate(p[0], p[1], jitter)
			m, err := fem.RectGrid("p", o)
			add(name, m, fem.EndLoad("l", o, 0, -1000), err)
		}
	}
	if truss {
		m, err := fem.CantileverTruss("t", 30, 2, 1.5, fem.Steel())
		tip := &fem.LoadSet{Name: "l", Entries: []fem.LoadEntry{{DOF: fem.DOF(30, 1), Value: 500}}}
		add("truss-30", m, tip, err)
	}
	return out
}

// TestEnvelopeKernelMatchesScalarOracleOnMeshes runs the bitwise
// kernel-against-oracle comparison on the systems the service factors:
// the benchmark's 40x24 plate as generated and with jittered nodes, and
// a truss, each under the cholesky-env plan.
func TestEnvelopeKernelMatchesScalarOracleOnMeshes(t *testing.T) {
	t.Log(linalg.HostBodies())
	for _, sys := range meshSystems(t, [][2]int{{40, 24}}, true) {
		t.Run(sys.name, func(t *testing.T) {
			if nnz := linalg.CheckEnvelopeKernel(t, sys.k, sys.rhs); nnz <= sys.k.N {
				t.Errorf("envelope of %d rows stores %d entries: nothing off the diagonal was compared", sys.k.N, nnz)
			}
		})
	}
}

// TestBandPlansMatchBandedOracleOnMeshes is TestBandPlansMatchBandedOracle
// on the 8x6, 12x8 and 40x24 plates, each as generated and jittered, and
// the truss: the cholesky and cholesky-rcm plans against the Banded
// solver, bitwise, under every kernel.
func TestBandPlansMatchBandedOracleOnMeshes(t *testing.T) {
	t.Log(linalg.HostBodies())
	for _, sys := range meshSystems(t, [][2]int{{8, 6}, {12, 8}, {40, 24}}, true) {
		t.Run(sys.name, func(t *testing.T) { linalg.CheckBandPlan(t, sys.k, sys.rhs) })
	}
}

// BenchmarkEnvelopeFactor times the refactorisation alone — the layer
// a refactor_large job spends most of its time in — of the 40x24
// plate's envelope under the cholesky-env plan, by each kernel: go (the
// pair kernel), avx2 and avx512 (the four- and eight-row panel kernels),
// each skipped on a CPU without it.
func BenchmarkEnvelopeFactor(b *testing.B) {
	sys := meshSystems(b, [][2]int{{40, 24}}, false)[0]
	plan, err := linalg.NewDirectPlan(sys.k, linalg.PlanOpts{Ordering: linalg.OrderRCM, Storage: linalg.StorageEnvelope})
	if err != nil {
		b.Fatal(err)
	}
	for _, body := range []string{"go", "avx2", "avx512"} {
		b.Run(body, func(b *testing.B) {
			refactor := linalg.FactorBody(plan, body, sys.k)
			if refactor == nil {
				b.Skip("CPU has no " + strings.ToUpper(body))
			}
			for b.Loop() {
				if err := refactor(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeSolve times the triangular solve alone — the kernel
// a warm re-solve spends most of its linear algebra in — on the 40x24
// plate's factor under the cholesky-env plan, by each body of its
// shared-column loops: go, and avx2 (skipped on a CPU without AVX2).
func BenchmarkEnvelopeSolve(b *testing.B) {
	sys := meshSystems(b, [][2]int{{40, 24}}, false)[0]
	plan, err := linalg.NewDirectPlan(sys.k, linalg.PlanOpts{Ordering: linalg.OrderRCM, Storage: linalg.StorageEnvelope})
	if err != nil {
		b.Fatal(err)
	}
	if err := plan.Refactor(sys.k, nil); err != nil {
		b.Fatal(err)
	}
	out := linalg.NewVector(sys.k.N)
	for _, body := range []string{"go", "avx2"} {
		b.Run(body, func(b *testing.B) {
			solve := linalg.SolveBody(plan, body, sys.rhs)
			if solve == nil {
				b.Skip("CPU has no AVX2")
			}
			for b.Loop() {
				solve(out)
			}
		})
	}
}

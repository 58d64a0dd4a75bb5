package linalg_test

import (
	"testing"

	"repro/internal/fem"
	"repro/internal/linalg"
)

// TestEnvelopeKernelMatchesScalarOracleOnMeshes runs the bitwise
// kernel-against-oracle comparison on the systems the service factors:
// the benchmark's 40x24 plate as generated and with jittered nodes, and
// a truss, each under the cholesky-env plan.
func TestEnvelopeKernelMatchesScalarOracleOnMeshes(t *testing.T) {
	plate := fem.RectGridOpts{NX: 40, NY: 24, W: 40, H: 24, Mat: fem.Steel(), ClampLeft: true}
	jittered := plate
	jittered.Jitter, jittered.Seed = 0.25, 19
	for _, tc := range []struct {
		name  string
		build func() (*fem.Model, *fem.LoadSet, error)
	}{
		{"plate-40x24", func() (*fem.Model, *fem.LoadSet, error) {
			m, err := fem.RectGrid("p", plate)
			return m, fem.EndLoad("l", plate, 0, -1000), err
		}},
		{"plate-40x24-jittered", func() (*fem.Model, *fem.LoadSet, error) {
			m, err := fem.RectGrid("p", jittered)
			return m, fem.EndLoad("l", jittered, 0, -1000), err
		}},
		{"truss-30", func() (*fem.Model, *fem.LoadSet, error) {
			m, err := fem.CantileverTruss("t", 30, 2, 1.5, fem.Steel())
			return m, fem.TipLoad("l", 30, -500), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, ls, err := tc.build()
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
			if nnz := linalg.CheckEnvelopeKernel(t, asm.K, rhs); nnz <= asm.K.N {
				t.Errorf("envelope of %d rows stores %d entries: nothing off the diagonal was compared", asm.K.N, nnz)
			}
		})
	}
}

package linalg

import "testing"

// CheckEnvelopeKernel runs the kernel-against-oracle comparison of
// envelope_test.go, one subtest per kernel, on a's values laid out as the
// cholesky-env backend lays them out (RCM order, envelope storage), for
// the external test package — the one that can import the mesh
// generators.  It reports the envelope's stored entry count.
func CheckEnvelopeKernel(t *testing.T, a *CSR, rhs Vector) int {
	t.Helper()
	plan, err := NewDirectPlan(a, PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope})
	if err != nil {
		t.Fatal(err)
	}
	loadPlan(plan, a)
	forEachKernel(t, func(t *testing.T, k envelopeKernel) {
		if err := checkEnvelopeKernel(t, k, plan.env, PermuteVector(rhs, plan.perm)); err != nil {
			t.Fatal(err)
		}
	})
	return plan.env.NNZ()
}

// CheckBandPlan is checkBandPlan of factor_test.go — a's band plans in
// natural and RCM order against the Banded oracle — for the external
// test package.
var CheckBandPlan = checkBandPlan

// SolveBody returns a solve of p's factored envelope by the named body
// of CholeskySolveInto ("go" or "avx2"), from rhs permuted into p's
// order into out, or nil when the host cannot run that body: the handle
// BenchmarkEnvelopeSolve times each body by.
func SolveBody(p *DirectPlan, name string, rhs Vector) func(out Vector) {
	prhs := rhs
	if p.perm != nil {
		prhs = PermuteVector(rhs, p.perm)
	}
	for _, b := range solveBodies {
		if b.name == name && b.runs() {
			return func(out Vector) { b.solve(p.env, prhs, out, nil) }
		}
	}
	return nil
}

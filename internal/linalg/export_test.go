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

package linalg

import "testing"

// CheckEnvelopeKernel runs the kernel-against-oracle comparison of
// envelope_test.go on a's values laid out as the cholesky-env backend
// lays them out (RCM order, envelope storage), for the external test
// package — the one that can import the mesh generators.  It reports the
// envelope's stored entry count.
func CheckEnvelopeKernel(t testing.TB, a *CSR, rhs Vector) int {
	t.Helper()
	plan, err := NewDirectPlan(a, PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope})
	if err != nil {
		t.Fatal(err)
	}
	for k, at := range plan.scatter {
		if at >= 0 {
			plan.env.env[at] = a.Val[k]
		}
	}
	if err := checkEnvelopeKernel(t, plan.env, PermuteVector(rhs, plan.perm)); err != nil {
		t.Fatal(err)
	}
	return plan.env.NNZ()
}

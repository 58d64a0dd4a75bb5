package linalg

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// badlyNumbered builds a 1D chain whose natural numbering interleaves the
// two halves, giving bandwidth ~n/2; RCM should recover bandwidth 2.
func badlyNumbered(n int) *CSR {
	// Chain in "shuffled" order: node order 0, n/2, 1, n/2+1, ...
	order := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			order[i] = i / 2
		} else {
			order[i] = n/2 + i/2
		}
	}
	pos := make([]int, n)
	for idx, node := range order {
		pos[node] = idx
	}
	var ts []Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{pos[i], pos[i], 4})
		if i > 0 {
			ts = append(ts, Triplet{pos[i], pos[i-1], -1}, Triplet{pos[i-1], pos[i], -1})
		}
	}
	m, err := NewCSRFromTriplets(n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func TestRCMIsAPermutation(t *testing.T) {
	m := badlyNumbered(20)
	perm := RCM(m)
	if len(perm) != m.N {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, m.N)
	for _, p := range perm {
		if p < 0 || p >= m.N || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	m := badlyNumbered(40)
	before := m.Bandwidth()
	pm, err := m.Permute(RCM(m))
	if err != nil {
		t.Fatal(err)
	}
	after := pm.Bandwidth()
	if after >= before {
		t.Errorf("RCM bandwidth %d not below original %d", after, before)
	}
	// A chain has optimal bandwidth 1; RCM on a path graph achieves it.
	if after > 2 {
		t.Errorf("RCM bandwidth %d on a chain, want <= 2", after)
	}
}

func TestRCMHandlesDisconnectedComponents(t *testing.T) {
	// Two decoupled chains.
	var ts []Triplet
	for i := 0; i < 6; i++ {
		ts = append(ts, Triplet{i, i, 2})
	}
	ts = append(ts, Triplet{0, 1, -1}, Triplet{1, 0, -1})
	ts = append(ts, Triplet{3, 4, -1}, Triplet{4, 3, -1})
	m, err := NewCSRFromTriplets(6, ts)
	if err != nil {
		t.Fatal(err)
	}
	perm := RCM(m)
	seen := make([]bool, 6)
	for _, p := range perm {
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("node %d missing from RCM ordering", i)
		}
	}
}

func TestPermuteRejectsBadPermutations(t *testing.T) {
	m := badlyNumbered(4)
	if _, err := m.Permute([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := m.Permute([]int{0, 0, 1, 2}); err == nil {
		t.Error("duplicate permutation accepted")
	}
	if _, err := m.Permute([]int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestPermuteVectorRoundTrip(t *testing.T) {
	v := Vector{10, 20, 30, 40}
	perm := []int{2, 0, 3, 1}
	p := PermuteVector(v, perm)
	if p[0] != 30 || p[1] != 10 || p[2] != 40 || p[3] != 20 {
		t.Errorf("PermuteVector = %v", p)
	}
	back := UnpermuteVector(p, perm)
	if MaxAbsDiff(v, back) != 0 {
		t.Errorf("round trip = %v", back)
	}
}

func TestSolveCholeskyRCMMatchesUnpermuted(t *testing.T) {
	m := badlyNumbered(30)
	want := NewVector(m.N)
	rng := rand.New(rand.NewSource(5))
	for i := range want {
		want[i] = rng.Float64()*2 - 1
	}
	b := m.MulVec(want, nil, nil)
	st := &Stats{}
	x, err := solveCholeskyRCM(m, b, st)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-9 {
		t.Errorf("RCM solve error %g", d)
	}
	// The reordered factorization does strictly less work than the
	// natural-order one on this badly numbered chain.
	stNat := &Stats{}
	if _, err := m.ToBanded().SolveCholesky(b, stNat); err != nil {
		t.Fatal(err)
	}
	if st.Flops >= stNat.Flops {
		t.Errorf("RCM flops %d not below natural-order flops %d", st.Flops, stNat.Flops)
	}
}

// Property: for random symmetric structures, Permute(RCM) preserves the
// spectrum's action — solving the permuted system and unpermuting equals
// solving the original (via CG, which is ordering-insensitive).
func TestQuickRCMPreservesSolution(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw)%15 + 3
		rng := rand.New(rand.NewSource(seed))
		ts := poisson1D(n)
		for e := 0; e < n/2; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				ts = append(ts, Triplet{i, j, -0.1}, Triplet{j, i, -0.1})
				ts = append(ts, Triplet{i, i, 0.2}, Triplet{j, j, 0.2}) // keep SPD
			}
		}
		m, err := NewCSRFromTriplets(n, ts)
		if err != nil {
			return false
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		xRef, _, err := seqCG(m, b, IterDefaults(IterOpts{}, n, 10), nil)
		if err != nil {
			return false
		}
		x, err := solveCholeskyRCM(m, b, nil)
		if err != nil {
			return false
		}
		return MaxAbsDiff(x, xRef) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// solveCholeskyRCM is the one-shot cholesky-rcm solve — the method
// table's row through a fresh factor cache — adding its flops to st.
func solveCholeskyRCM(a *CSR, b Vector, st *Stats) (Vector, error) {
	m, err := Backend(BackendCholeskyRCM)
	if err != nil {
		return nil, err
	}
	x, info, err := m.Solve(context.Background(), new(FactorCache), a, 0, b, nil, nil, IterOpts{})
	st.addFlops(info.Flops)
	return x, err
}

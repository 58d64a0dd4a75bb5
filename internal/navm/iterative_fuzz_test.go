package navm_test

import (
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/navm"
)

// FuzzIterativeBlocks draws a seeded symmetric positive definite system —
// a Poisson grid with a random solution, or a clamped plate of random
// size, material, jitter and end load — and one distributed solve of it:
// cg, jacobi or sor on 1 to 8 row blocks of a machine of random shape,
// converged, out of budget, or cancelled.  navm.CheckIterative demands
// the solver ≡ its verbatim oracle, the one-block solve ≡ the sequential
// backend, and a converged answer within a stated tolerance of
// cholesky's.
func FuzzIterativeBlocks(f *testing.F) {
	for seed := range int64(12) {
		f.Add(seed, uint8(seed), uint8(seed), uint8(seed*5), uint8(seed%3), uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, method, p, stop, k uint8) {
		a, b := iterativeSystem(t, seed, shape)
		c := navm.IterCase{
			Method:   []string{linalg.BackendCG, linalg.BackendJacobi, linalg.BackendSOR}[method%3],
			P:        1 + int(p%8),
			Clusters: 1 + int(p/8%4), PEsPerCluster: 2 + int(p/32%4),
			Stop: int(stop % 3), MaxIter: 3000, CancelAt: int(k % 40),
		}
		if c.Stop == navm.StopExhausted {
			c.MaxIter = 1 + int(k%30)
		}
		navm.CheckIterative(t, a, b, c)
	})
}

// iterativeSystem builds the system shape and seed select: an even shape
// is a Poisson grid of 2×2 to 9×9 points whose solution is drawn from
// seed; an odd one a plate of 1..4 × 1..3 cells clamped on the left,
// with a modulus, Poisson's ratio, thickness, jitter and end load drawn
// from seed.
func iterativeSystem(t *testing.T, seed int64, shape uint8) (*linalg.CSR, linalg.Vector) {
	rng := rand.New(rand.NewSource(seed))
	if shape%2 == 0 {
		a := poissonGrid(2 + int(shape/2%8))
		want := linalg.NewVector(a.N)
		for i := range want {
			want[i] = rng.Float64()*2 - 1
		}
		want[rng.Intn(a.N)] = 1 // never all zero
		return a, a.MulVec(want, nil, nil)
	}
	nx, ny := 1+int(shape/2%4), 1+int(shape/8%3)
	o := fem.RectGridOpts{
		NX: nx, NY: ny, W: float64(nx) * (0.5 + rng.Float64()), H: float64(ny) * (0.5 + rng.Float64()),
		Mat:       fem.Material{E: 1e3 + rng.Float64()*3e5, Nu: rng.Float64() * 0.45, T: 0.5 + rng.Float64()*20, A: 1},
		ClampLeft: true,
	}
	if rng.Intn(2) == 1 {
		o.Jitter, o.Seed = 0.2, seed
	}
	m, err := fem.RectGrid("p", o)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := fem.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	ls := fem.EndLoad("l", o, rng.Float64()*2000-1000, 1+rng.Float64()*1000)
	b, err := m.RHS(ls, asm.Index, len(asm.Free))
	if err != nil {
		t.Fatal(err)
	}
	return asm.K, b
}

// poissonGrid is the 5-point Laplacian on an n×n interior grid.
func poissonGrid(n int) *linalg.CSR {
	var ts []linalg.Triplet
	for i := range n {
		for j := range n {
			r := i*n + j
			ts = append(ts, linalg.Triplet{Row: r, Col: r, Val: 4})
			for _, nb := range [][2]int{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
				if nb[0] >= 0 && nb[0] < n && nb[1] >= 0 && nb[1] < n {
					ts = append(ts, linalg.Triplet{Row: r, Col: nb[0]*n + nb[1], Val: -1})
				}
			}
		}
	}
	a, err := linalg.NewCSRFromTriplets(n*n, ts)
	if err != nil {
		panic(err)
	}
	return a
}

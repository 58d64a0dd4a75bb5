package linalg

import (
	"fmt"
)

// RCM computes the reverse Cuthill–McKee ordering of a structurally
// symmetric sparse matrix: perm[newIndex] = oldIndex.  RCM was the
// standard bandwidth-reducing preprocessing of 1980s finite element
// codes — banded Cholesky cost grows with the square of the bandwidth,
// so a good numbering decides whether the direct baseline is viable.
func RCM(a *CSR) []int {
	n := a.N
	// perm doubles as the BFS queue: a vertex is appended when
	// discovered and processed when head reaches it, so the slice is the
	// Cuthill–McKee order with no separate queue allocation.
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	deg := func(i int) int { return a.RowNNZ(i) }
	var nbrs []int

	// Process each connected component from a minimum-degree start.
	for head := 0; len(perm) < n; {
		start := -1
		for i := 0; i < n; i++ {
			if !visited[i] && (start == -1 || deg(i) < deg(start)) {
				start = i
			}
		}
		// BFS in degree order (Cuthill–McKee).
		perm = append(perm, start)
		visited[start] = true
		for ; head < len(perm); head++ {
			v := perm[head]
			nbrs = nbrs[:0]
			for _, j := range a.RowColumns(v) {
				if j != v && !visited[j] {
					visited[j] = true
					nbrs = append(nbrs, j)
				}
			}
			// Insertion sort by (degree, index) — a strict total order,
			// so the result is identical to any comparison sort, without
			// sort.Slice's per-call allocations (neighbour lists are
			// element-arity small).
			for x := 1; x < len(nbrs); x++ {
				for y := x; y > 0; y-- {
					dy, dp := deg(nbrs[y]), deg(nbrs[y-1])
					if dy < dp || (dy == dp && nbrs[y] < nbrs[y-1]) {
						nbrs[y], nbrs[y-1] = nbrs[y-1], nbrs[y]
						continue
					}
					break
				}
			}
			perm = append(perm, nbrs...)
		}
	}
	// Reverse (the "R" in RCM).
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Permute applies a symmetric permutation to the matrix: result[i][j] =
// a[perm[i]][perm[j]].  perm[newIndex] = oldIndex, as produced by RCM.
func (a *CSR) Permute(perm []int) (*CSR, error) {
	if len(perm) != a.N {
		return nil, fmt.Errorf("%w: permutation of %d for order %d", ErrDimension, len(perm), a.N)
	}
	inv := make([]int, a.N)
	seen := make([]bool, a.N)
	for newI, oldI := range perm {
		if oldI < 0 || oldI >= a.N || seen[oldI] {
			return nil, fmt.Errorf("linalg: not a permutation at %d", newI)
		}
		seen[oldI] = true
		inv[oldI] = newI
	}
	ts := make([]Triplet, 0, a.NNZ())
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			ts = append(ts, Triplet{Row: inv[i], Col: inv[a.ColIdx[k]], Val: a.Val[k]})
		}
	}
	return NewCSRFromTriplets(a.N, ts)
}

// SolveCholeskyRCM solves A*x = b by banded Cholesky after RCM
// reordering, returning the solution in the original ordering — the full
// 1980s production direct-solve pipeline.  It is a one-shot DirectPlan:
// the permuted values scatter straight into the band-profile envelope
// through the plan's index map instead of materialising a permuted CSR
// from triplets, which is where the old pipeline's hundreds of
// allocations per solve went.  Callers that solve one topology repeatedly should
// retain the plan (NewDirectPlan) or go through a FactorCache instead.
func SolveCholeskyRCM(a *CSR, b Vector, st *Stats) (Vector, error) {
	plan, err := NewDirectPlan(a, PlanOpts{Ordering: OrderRCM})
	if err != nil {
		return nil, err
	}
	if err := plan.Refactor(a, st); err != nil {
		return nil, err
	}
	return plan.SolveInto(b, nil, st)
}

// The factor-once layer of the direct solvers: a DirectPlan separates
// the symbolic work of an envelope Cholesky solve — ordering, profile
// discovery (a uniform band or a per-row skyline), storage allocation —
// from the numeric work of factoring and back-substituting, exactly as
// Pattern does for assembly.  The paper's production workload is many
// solves of one topology (load steps, experiment table rows, queues of
// jobs on one model), so the expensive state is computed once per
// topology, numeric refactorisation is in-place and allocation-free, and
// a warm repeat solve costs one triangular solve instead of a
// factorisation.
package linalg

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/errs"
	"repro/internal/obs"
)

// Ordering selects the row/column ordering a DirectPlan factors under.
type Ordering int

// OrderRCM renumbers by reverse Cuthill–McKee to shrink the profile;
// the zero Ordering keeps the mesh numbering.
const OrderRCM Ordering = 1

// StorageKind selects the row profile of a DirectPlan's envelope.  Both
// kinds factor with the same kernel, so their factors agree bitwise.
type StorageKind int

const (
	// StorageBand stores a uniform band, first[i] = max(0, i−w): every
	// row pays the worst row's half-bandwidth w.  Its backward
	// substitution is a row dot over ascending k, so its solutions keep
	// the bits of the banded solver the band profile replaced.
	StorageBand StorageKind = iota
	// StorageEnvelope stores the per-row skyline profile.
	StorageEnvelope
)

// PlanOpts selects a DirectPlan's ordering and storage.  The zero value
// is the natural-order banded baseline.
type PlanOpts struct {
	Ordering Ordering
	Storage  StorageKind
}

// DirectPlan is the symbolic state of a direct solve, computed once per
// sparsity pattern: the permutation, the envelope with its band or
// skyline profile, a scatter map from CSR values into that storage, and
// the permute scratch.  Refactor and SolveInto are the numeric phase:
// both are allocation-free in steady state, and a warm SolveInto against
// an unchanged factor is bit-identical to the solve performed right
// after the factorisation.  A plan's methods are not safe for
// concurrent use (FactorCache adds the locking).
type DirectPlan struct {
	n   int
	nnz int
	// rowPtr and colIdx are the sparsity pattern the plan was built
	// from (shared with the source CSR, immutable); Refactor checks
	// incoming matrices against them — equal order and nnz are not
	// enough, a different pattern would scatter through the wrong map.
	rowPtr, colIdx []int
	// perm[new] = old and inv[old] = new; nil for the natural order.
	perm, inv []int
	// scatter[k] is the flat index in the storage value array that CSR
	// value k lands on, -1 for strictly upper-triangle entries.
	scatter []int32
	env     *Envelope
	// px is the permute scratch; cols is the SolveMatrixInto column
	// scratch, grown on first use.
	px       Vector
	cols     Vector
	factored bool
}

// NewDirectPlan runs the symbolic phase over a's sparsity pattern:
// ordering, profile, storage, and scatter map.  No values are read —
// call Refactor before the first solve.
func NewDirectPlan(a *CSR, opts PlanOpts) (*DirectPlan, error) {
	if a.N < 0 {
		return nil, fmt.Errorf("%w: NewDirectPlan order %d", ErrDimension, a.N)
	}
	p := &DirectPlan{
		n: a.N, nnz: a.NNZ(),
		rowPtr: a.RowPtr, colIdx: a.ColIdx,
		px: NewVector(a.N),
	}
	if opts.Ordering == OrderRCM {
		p.perm = RCM(a)
		p.inv = make([]int, a.N)
		for newI, oldI := range p.perm {
			p.inv[oldI] = newI
		}
	}
	newIdx := func(i int) int {
		if p.inv == nil {
			return i
		}
		return p.inv[i]
	}
	// Each permuted row's first structural column, and the half-bandwidth
	// over both triangles.
	first := make([]int, a.N)
	for i := range first {
		first[i] = i
	}
	w := 0
	for i := 0; i < a.N; i++ {
		pi := newIdx(i)
		for _, j := range a.RowColumns(i) {
			pj := newIdx(j)
			first[pi] = min(first[pi], pj)
			w = max(w, pi-pj, pj-pi)
		}
	}
	switch opts.Storage {
	case StorageBand:
		for i := range first {
			first[i] = max(0, i-w)
		}
	case StorageEnvelope:
	default:
		return nil, errs.Usage("unknown factor storage %d", opts.Storage)
	}
	p.env = NewEnvelope(first)
	p.env.rowDot = opts.Storage == StorageBand
	// Scatter map: lower-triangle CSR values to flat storage indices.
	p.scatter = make([]int32, p.nnz)
	for i := 0; i < a.N; i++ {
		pi := newIdx(i)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			pj := newIdx(a.ColIdx[k])
			if pj > pi {
				p.scatter[k] = -1
				continue
			}
			p.scatter[k] = int32(p.env.ptr[pi] + pj - p.env.first[pi])
		}
	}
	return p, nil
}

// ProfileNNZ returns the stored lower-triangle entry count of the
// factor storage, the storage the factorisation pays for: the skyline
// profile, which for a band of half-width w is N(w+1) − w(w+1)/2.
func (p *DirectPlan) ProfileNNZ() int { return p.env.NNZ() }

// MatchesPattern reports whether a has exactly the sparsity pattern the
// plan was built from.  Patterns built from one linalg.Pattern share
// backing arrays, so the common case is two pointer comparisons; the
// fallback compares element-wise.
func (p *DirectPlan) MatchesPattern(a *CSR) bool {
	if a.N != p.n || a.NNZ() != p.nnz {
		return false
	}
	if sameInts(a.RowPtr, p.rowPtr) && sameInts(a.ColIdx, p.colIdx) {
		return true
	}
	for i, v := range p.rowPtr {
		if a.RowPtr[i] != v {
			return false
		}
	}
	for i, v := range p.colIdx {
		if a.ColIdx[i] != v {
			return false
		}
	}
	return true
}

// sameInts reports whether two equal-length slices share storage.
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Refactor scatters a's values into the plan's storage and factors in
// place — the numeric phase, allocation-free in steady state.  a must
// match the planned pattern exactly; a matrix with the same order and
// nnz but a different pattern is rejected rather than mis-scattered.
// On a factorisation failure (matrix not positive definite) the plan is
// left unfactored.
func (p *DirectPlan) Refactor(a *CSR, st *Stats) error {
	if !p.MatchesPattern(a) {
		return fmt.Errorf("%w: Refactor order %d/%d nnz against plan %d/%d (or mismatched sparsity pattern)",
			ErrDimension, a.N, a.NNZ(), p.n, p.nnz)
	}
	p.factored = false
	vals := p.env.env
	clear(vals)
	for k, t := range p.scatter {
		if t >= 0 {
			vals[t] = a.Val[k]
		}
	}
	if err := p.env.CholeskyFactorInPlace(st); err != nil {
		return err
	}
	p.factored = true
	return nil
}

// ErrNotFactored reports a solve against a plan whose Refactor has not
// (successfully) run.
var ErrNotFactored = fmt.Errorf("linalg: plan not factored (call Refactor first)")

// SolveInto solves against the current factor into out (allocated when
// nil; may alias rhs).  With the plan's scratch warm it allocates
// nothing, and its result is bit-identical to the solve performed right
// after Refactor — the differential guarantee the factor caches rely
// on.
func (p *DirectPlan) SolveInto(rhs, out Vector, st *Stats) (Vector, error) {
	if !p.factored {
		return nil, ErrNotFactored
	}
	if len(rhs) != p.n {
		return nil, fmt.Errorf("%w: SolveInto order %d with rhs %d", ErrDimension, p.n, len(rhs))
	}
	if out == nil {
		out = NewVector(p.n)
	}
	if len(out) != p.n {
		return nil, fmt.Errorf("%w: SolveInto order %d into %d", ErrDimension, p.n, len(out))
	}
	if p.perm == nil {
		p.env.CholeskySolveInto(rhs, out, st)
		return out, nil
	}
	for i, oldI := range p.perm {
		p.px[i] = rhs[oldI]
	}
	p.env.CholeskySolveInto(p.px, p.px, st)
	for i, oldI := range p.perm {
		out[oldI] = p.px[i]
	}
	return out, nil
}

// SolveMatrixInto solves A·X = C column by column into out (allocated
// when nil), reusing one column scratch across right-hand sides —
// condensation-style multi-RHS solves against a retained factor.
func (p *DirectPlan) SolveMatrixInto(c, out *Dense, st *Stats) (*Dense, error) {
	if !p.factored {
		return nil, ErrNotFactored
	}
	if c.Rows != p.n {
		return nil, fmt.Errorf("%w: SolveMatrixInto order %d with %d rows", ErrDimension, p.n, c.Rows)
	}
	if out == nil {
		out = NewDense(p.n, c.Cols)
	}
	if out.Rows != p.n || out.Cols != c.Cols {
		return nil, fmt.Errorf("%w: SolveMatrixInto %dx%d into %dx%d",
			ErrDimension, p.n, c.Cols, out.Rows, out.Cols)
	}
	if p.cols == nil {
		p.cols = NewVector(p.n)
	}
	col := p.cols
	for j := 0; j < c.Cols; j++ {
		for i := 0; i < p.n; i++ {
			col[i] = c.At(i, j)
		}
		if _, err := p.SolveInto(col, col, st); err != nil {
			return nil, err
		}
		for i := 0; i < p.n; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out, nil
}

// FactorCache retains one DirectPlan per direct backend for a model's
// system, so repeated solves of an unchanged matrix reuse the factor
// and solves after a value change refactor in place instead of
// replanning.  A cached hit requires the incoming values to be
// bit-identical to the values the factor was computed from — the cache
// never trades correctness for reuse, so callers that mutate a model
// behind its back still get exact answers (at refactor cost).  All
// methods are safe for concurrent use; solves on one cache serialize,
// which is the per-model serialization the job layer already imposes.
type FactorCache struct {
	mu sync.Mutex
	// gen counts refactorisations — the cache's generation, bumped every
	// time a solve could not reuse the current factor.
	gen     uint64
	entries map[string]*factorEntry

	// Shared observability counters (Instrument): warm solves, plan
	// misses, refactorisations and the flops those spent.  Nil no-op
	// sinks by default, so an uninstrumented cache pays one nil check per
	// solve.
	hits, misses, refactors, flops *obs.Counter
}

// Instrument routes the cache's hit/miss/refactor counts and the flops
// its refactorisations spend into shared counters — fem.Model.Instrument
// points its cache at the system registry's factor.* family.  Any
// argument may be nil.
func (fc *FactorCache) Instrument(hits, misses, refactors, flops *obs.Counter) {
	fc.mu.Lock()
	fc.hits, fc.misses, fc.refactors, fc.flops = hits, misses, refactors, flops
	fc.mu.Unlock()
}

// factorEntry is one backend's cached plan plus the exact values the
// current factor was computed from.
type factorEntry struct {
	plan *DirectPlan
	vals []float64
	// nan records a NaN among vals: it equals nothing, itself included,
	// so such a factor is never reused.  Looked for once per refactor,
	// which keeps the per-solve comparison one integer compare a value.
	nan bool
	// pass is the token of the solve the factor was computed for or last
	// found its values equal in, 0 for none (see SolveCached).  It is
	// cleared before Refactor runs and set only after it succeeds.
	pass uint64
}

// Generation returns the number of factorisations the cache has
// performed — tests assert a changed model bumps it and an unchanged
// one does not.
func (fc *FactorCache) Generation() uint64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.gen
}

// SolveCached solves A·x = b through backend's cached plan, factoring
// only when it must: a missing or pattern-mismatched entry replans, a
// value change refactors in place, and unchanged values ride the warm
// factor (refactored reports which happened).  Warm results are
// bit-identical to the solve performed when the factor was computed.
// x receives the solution (allocated when nil; may alias b).  st
// receives the factor flops only when a factorisation ran, so flop
// accounting shows the factor-once win.
//
// pass is the caller's proof that a.Val is unchanged, 0 for none.  A
// non-zero pass is a token the caller never hands out for two different
// contents of a.Val (fem's retained assembly: one per recording pass,
// withdrawn before the buffer is written again).  When it equals the
// token the current factor was computed from or last matched, the values
// are not compared; any other call — every pass 0 included — compares
// them bit for bit (-0 differs from +0, and a factor of values with a
// NaN is never reused), so reuse never rests on anything weaker.
func (fc *FactorCache) SolveCached(backend string, a *CSR, pass uint64, b, x Vector, st *Stats) (_ Vector, refactored bool, err error) {
	po, ok := PlanOptsFor(backend)
	if !ok {
		return nil, false, errs.Usage("backend %q has no direct factorisation to cache", backend)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.entries == nil {
		fc.entries = map[string]*factorEntry{}
	}
	e := fc.entries[backend]
	if e == nil || !e.plan.MatchesPattern(a) {
		fc.misses.Inc()
		plan, perr := NewDirectPlan(a, po)
		if perr != nil {
			return nil, false, perr
		}
		e = &factorEntry{plan: plan}
		fc.entries[backend] = e
	}
	proven := pass != 0 && pass == e.pass && e.plan.factored && !e.nan
	if !proven && (!e.plan.factored || e.nan || !valuesEqual(e.vals, a.Val)) {
		fc.refactors.Inc()
		e.pass = 0
		var spent Stats
		err := e.plan.Refactor(a, &spent)
		st.Merge(spent)
		fc.flops.Add(spent.Flops)
		if err != nil {
			return nil, true, err
		}
		if len(e.vals) != len(a.Val) {
			e.vals = make([]float64, len(a.Val))
		}
		copy(e.vals, a.Val)
		e.nan = hasNaN(e.vals)
		fc.gen++
		refactored = true
	} else {
		fc.hits.Inc()
	}
	e.pass = pass
	x, err = e.plan.SolveInto(b, x, st)
	return x, refactored, err
}

// valuesEqual reports whether two value arrays hold the same bit
// patterns (-0 differs from +0) — the stiffness witness's rule, but for
// the NaNs, which are hasNaN's to find.
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hasNaN reports whether any value is a NaN.
func hasNaN(vals []float64) bool {
	for _, v := range vals {
		if v != v {
			return true
		}
	}
	return false
}

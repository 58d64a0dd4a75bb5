package fem

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/navm"
)

// Substructure is one piece of a partitioned model: a set of elements,
// the free dofs interior to the piece, and the free dofs it shares with
// other pieces (the interface).
type Substructure struct {
	// Elems indexes the parent model's element list.
	Elems []int
	// Internal lists global free dofs touched only by this piece.
	Internal []int
	// Boundary lists global free dofs shared with other pieces.
	Boundary []int
}

// Substructured is a model partitioned for substructure analysis — the
// paper's "parallelism in the substructure analysis of a larger
// structure".
type Substructured struct {
	Model *Model
	Subs  []*Substructure
	// Interface lists every shared global dof, sorted; the condensed
	// problem is solved over these.
	Interface []int
}

// PartitionByX splits the model's elements into k vertical bands by
// element centroid, the natural decomposition of an elongated structure
// (a wing, a fuselage section) into substructures.
func PartitionByX(m *Model, k int) (*Substructured, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: %d substructures", ErrModel, k)
	}
	if len(m.Elements) == 0 {
		return nil, fmt.Errorf("%w: no elements", ErrModel)
	}
	minX, maxX := m.Nodes[0].X, m.Nodes[0].X
	for _, n := range m.Nodes {
		if n.X < minX {
			minX = n.X
		}
		if n.X > maxX {
			maxX = n.X
		}
	}
	width := maxX - minX
	if width == 0 {
		width = 1
	}
	s := &Substructured{Model: m, Subs: make([]*Substructure, k)}
	for i := range s.Subs {
		s.Subs[i] = &Substructure{}
	}
	// Which substructures touch each dof?
	touch := make([]map[int]bool, m.NumDOF())
	var nodes []int
	for ei, e := range m.Elements {
		var cx float64
		nodes = e.AppendNodes(nodes[:0])
		for _, n := range nodes {
			cx += m.Nodes[n].X
		}
		cx /= float64(len(nodes))
		band := int(float64(k) * (cx - minX) / width)
		if band >= k {
			band = k - 1
		}
		if band < 0 {
			band = 0
		}
		s.Subs[band].Elems = append(s.Subs[band].Elems, ei)
		for _, d := range ElementDOFs(e) {
			if touch[d] == nil {
				touch[d] = map[int]bool{}
			}
			touch[d][band] = true
		}
	}
	for i := range s.Subs {
		if len(s.Subs[i].Elems) == 0 {
			return nil, fmt.Errorf("%w: substructure %d is empty; use fewer bands", ErrModel, i)
		}
	}
	// Classify free dofs.
	ifaceSet := map[int]bool{}
	for d := 0; d < m.NumDOF(); d++ {
		if m.Fixed(d) || touch[d] == nil {
			continue
		}
		if len(touch[d]) > 1 {
			ifaceSet[d] = true
			for band := range touch[d] {
				s.Subs[band].Boundary = append(s.Subs[band].Boundary, d)
			}
		} else {
			for band := range touch[d] {
				s.Subs[band].Internal = append(s.Subs[band].Internal, d)
			}
		}
	}
	for d := range ifaceSet {
		s.Interface = append(s.Interface, d)
	}
	sort.Ints(s.Interface)
	for _, sub := range s.Subs {
		sort.Ints(sub.Internal)
		sort.Ints(sub.Boundary)
	}
	return s, nil
}

// condensed is one substructure's Schur complement contribution.
type condensed struct {
	sub *Substructure
	// schur is |Boundary|×|Boundary|: K_bb - K_biᵀ·K_ii⁻¹·K_ib.
	schur *linalg.Dense
	// fb is the condensed boundary load.
	fb linalg.Vector
	// chol (the factored plan of K_ii) and kib allow internal
	// back-substitution.
	chol *linalg.DirectPlan
	kib  *linalg.Dense
	fi   linalg.Vector
	// flops spent condensing (for cost attribution).
	flops int64
}

// condense performs static condensation of one substructure for one load
// set.  K_ii is factored through a natural-order band plan: the internal
// dofs of a vertical band are nearly contiguous in the mesh numbering,
// so the interior block has a small local bandwidth and the
// factorisation costs O(ni·bw²) instead of the dense O(ni³).
func condense(m *Model, sub *Substructure, ls *LoadSet) (*condensed, error) {
	ni, nb := len(sub.Internal), len(sub.Boundary)
	// idxI[d] and idxB[d] are global dof d's interior and boundary
	// indices here, −1 where it is neither.
	idxI, idxB := dofIndex(m, sub.Internal), dofIndex(m, sub.Boundary)
	// Symbolic pass: the interior block's pattern, from connectivity
	// alone — every interior pair of every element, in the order the
	// numeric pass below visits them.
	elemDOFs := make([][]int, len(sub.Elems))
	pairs := 0
	for k, ei := range sub.Elems {
		elemDOFs[k] = ElementDOFs(m.Elements[ei])
		in := 0
		for _, d := range elemDOFs[k] {
			if idxI[d] >= 0 {
				in++
			}
		}
		pairs += in * in
	}
	rows, cols := make([]int32, 0, pairs), make([]int32, 0, pairs)
	for _, dofs := range elemDOFs {
		for _, gi := range dofs {
			if ii := idxI[gi]; ii >= 0 {
				for _, gj := range dofs {
					if ji := idxI[gj]; ji >= 0 {
						rows, cols = append(rows, int32(ii)), append(cols, int32(ji))
					}
				}
			}
		}
	}
	at := make([]int32, pairs)
	pat, err := linalg.NewPattern(ni, rows, cols, at)
	if err != nil {
		return nil, err
	}
	kii := pat.NewCSR()
	next := 0 // the interior pair the numeric pass is at, in rows/cols
	kib := linalg.NewDense(ni, nb)
	kbb := linalg.NewDense(nb, nb)
	st := &linalg.Stats{}
	var sc stiffScratch
	for k, ei := range sub.Elems {
		e, dofs := m.Elements[ei], elemDOFs[k]
		ke, err := sc.stiffness(m, e, len(dofs))
		if err != nil {
			return nil, err
		}
		for i, gi := range dofs {
			ii, ib := idxI[gi], idxB[gi]
			if ii < 0 && ib < 0 {
				continue // fixed dof
			}
			for j, gj := range dofs {
				ji, jb := idxI[gj], idxB[gj]
				v := ke.At(i, j)
				p := -1 // the K_ii entry of an interior pair
				if ii >= 0 && ji >= 0 {
					p = int(at[next])
					next++
				}
				if v == 0 {
					continue
				}
				switch {
				case p >= 0:
					// Each visit adds to its own entry; the plan factors
					// the lower triangle, which sums the lower visits in
					// element order.
					kii.Val[p] += v
				case ii >= 0 && jb >= 0:
					kib.AddAt(ii, jb, v)
				case ib >= 0 && jb >= 0:
					kbb.AddAt(ib, jb, v)
					// A boundary row's interior columns land in kib via
					// the symmetric visit.
				}
				st.Flops++
			}
		}
	}
	// Loads restricted to this substructure's dofs.
	// Internal loads enter the condensation here; loads on interface
	// dofs are applied once, by SolveSubstructured, when the interface
	// system is assembled.
	fi := linalg.NewVector(ni)
	for _, le := range ls.Entries {
		if le.DOF >= 0 && le.DOF < len(idxI) && idxI[le.DOF] >= 0 {
			fi[idxI[le.DOF]] += le.Value
		}
	}
	c := &condensed{sub: sub, fi: fi, kib: kib}
	if ni > 0 {
		chol, err := linalg.NewDirectPlan(kii, linalg.PlanOpts{})
		if err != nil {
			return nil, err
		}
		if err := chol.Refactor(kii, st); err != nil {
			return nil, fmt.Errorf("fem: substructure interior not SPD: %w", err)
		}
		c.chol = chol
		// S = K_bb - K_ibᵀ · (K_ii⁻¹ K_ib)
		y, err := chol.SolveMatrixInto(kib, nil, st) // ni×nb
		if err != nil {
			return nil, err
		}
		s := kib.Transpose().Mul(y, st)
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				kbb.AddAt(i, j, -s.At(i, j))
			}
		}
		// fb := -K_ibᵀ · K_ii⁻¹ fi  (applied loads on boundary added
		// by the caller)
		z, err := chol.SolveInto(fi, nil, st)
		if err != nil {
			return nil, err
		}
		corr := kib.Transpose().MulVec(z, nil, st)
		fbv := linalg.NewVector(nb)
		for i := range fbv {
			fbv[i] = -corr[i]
		}
		c.fb = fbv
	} else {
		c.fb = linalg.NewVector(nb)
	}
	c.schur = kbb
	c.flops = st.Flops
	return c, nil
}

// dofIndex returns, for each of m's dofs, its position in dofs, −1 for
// a dof not in it.
func dofIndex(m *Model, dofs []int) []int {
	idx := make([]int, m.NumDOF())
	for i := range idx {
		idx[i] = -1
	}
	for i, d := range dofs {
		idx[d] = i
	}
	return idx
}

// SolveSubstructured solves the model by substructure analysis: each
// substructure condenses its interior onto the interface (fanned out
// over a host pool of GOMAXPROCS workers, and costed in parallel on the
// simulated machine when rt is non-nil), the assembled interface system
// is solved, and interiors are recovered by back-substitution.  The
// result does not depend on the pool's size: condensations are mutually
// independent and land in per-substructure slots.  ctx is checked before
// each condensation and before the interface solve; a cancelled solve
// returns an error wrapping errs.ErrCancelled.
func SolveSubstructured(ctx context.Context, m *Model, s *Substructured, ls *LoadSet, rt *navm.Runtime) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k := len(s.Subs)
	conds := make([]*condensed, k)
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	condErrs := make([]error, k)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= k {
					return
				}
				if err := errs.Cancelled(ctx); err != nil {
					condErrs[i] = err
					return
				}
				c, err := condense(m, s.Subs[i], ls)
				if err != nil {
					condErrs[i] = fmt.Errorf("fem: substructure %d: %w", i, err)
					return
				}
				conds[i] = c
			}
		}()
	}
	wg.Wait()
	for _, err := range condErrs {
		if err != nil {
			return nil, err
		}
	}
	// Parallel cost attribution: each condensation runs on its own
	// worker PE (least-loaded, interleaved over clusters), then a
	// barrier gathers the interface contributions at the coordinator.
	if rt != nil {
		pes, err := rt.SolveWorkers(k)
		if err != nil {
			return nil, fmt.Errorf("fem: no live workers for substructure solve: %w", err)
		}
		ids := make([]int, 0, k)
		for i, c := range conds {
			pe := pes[i]
			rt.Machine().Compute(pe.ID, c.flops*navm.CyclesPerFlop)
			ids = append(ids, pe.ID)
			// Interface contribution ships to the coordinator.
			words := int64(len(c.sub.Boundary) * (len(c.sub.Boundary) + 1))
			rt.Machine().RemoteFetch(pes[0].ID, pe.Cluster, words)
		}
		rt.Machine().Barrier(ids)
	}

	// Assemble the interface system.
	iface := s.Interface
	ifaceIdx := map[int]int{}
	for i, d := range iface {
		ifaceIdx[d] = i
	}
	n := len(iface)
	sys := linalg.NewDense(n, n)
	rhs := linalg.NewVector(n)
	for _, c := range conds {
		for i, di := range c.sub.Boundary {
			gi := ifaceIdx[di]
			rhs[gi] += c.fb[i]
			for j, dj := range c.sub.Boundary {
				gj := ifaceIdx[dj]
				sys.AddAt(gi, gj, c.schur.At(i, j))
			}
		}
	}
	// Applied loads on interface dofs enter once, here.
	for _, le := range ls.Entries {
		if gi, ok := ifaceIdx[le.DOF]; ok {
			rhs[gi] += le.Value
		}
	}
	var ub linalg.Vector
	if n > 0 {
		if err := errs.Cancelled(ctx); err != nil {
			return nil, err
		}
		var err error
		ub, err = sys.SolveGauss(rhs, nil)
		if err != nil {
			return nil, fmt.Errorf("fem: interface solve: %w", err)
		}
	}

	// Back-substitute interiors: u_i = K_ii⁻¹ (f_i - K_ib u_b).
	u := linalg.NewVector(m.NumDOF())
	for i, d := range iface {
		u[d] = ub[i]
	}
	for _, c := range conds {
		ni := len(c.sub.Internal)
		if ni == 0 {
			continue
		}
		ubLocal := linalg.NewVector(len(c.sub.Boundary))
		for i, d := range c.sub.Boundary {
			ubLocal[i] = u[d]
		}
		t := c.kib.MulVec(ubLocal, nil, nil)
		rhsI := linalg.NewVector(ni)
		for i := range rhsI {
			rhsI[i] = c.fi[i] - t[i]
		}
		ui, err := c.chol.SolveInto(rhsI, rhsI, nil)
		if err != nil {
			return nil, err
		}
		for i, d := range c.sub.Internal {
			u[d] = ui[i]
		}
	}
	// Condensation factors every interior block afresh each call.
	return &Solution{U: u, Refactored: true}, nil
}

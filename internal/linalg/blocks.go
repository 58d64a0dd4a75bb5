package linalg

// Blocks is the row partition an iterative kernel runs over, and the
// hook that prices it.  Block w holds rows [Lo[w], Hi[w]); the blocks
// are contiguous and ascending and cover every row.  A kernel does each
// phase block by block and adds per-block partial sums in block order,
// so its bits depend on the partition and never on the hook.  The
// sequential solve runs one block and no hook; the NAVM distributed
// solve runs one block per worker with a hook that charges the
// simulated machine.
type Blocks struct {
	Lo, Hi []int
	// Cost prices the phases; nil prices nothing.
	Cost CostHook
}

// CostHook is called where a distributed solve costs something on the
// machine that runs it.  linalg calls it; navm implements it.
type CostHook interface {
	// Halo is called before CG's product, each Jacobi sweep and each
	// SOR colour class: the exchanges the machine model charges (the
	// convergence check's product is charged none).
	Halo()
	// Work is called with the flops block w did in one phase.
	Work(w int, flops int64)
	// Barrier is called where every block waits for all the others:
	// after a product or a sweep, and after each reduction the next
	// step needs.
	Barrier()
}

// oneBlock is the sequential partition of n rows: one block, no hook.
func oneBlock(n int) Blocks { return Blocks{Lo: []int{0}, Hi: []int{n}} }

// work charges block w's flops of one phase to st and the hook.
func (bl Blocks) work(w int, flops int64, st *Stats) {
	st.addFlops(flops)
	if bl.Cost != nil {
		bl.Cost.Work(w, flops)
	}
}

func (bl Blocks) halo() {
	if bl.Cost != nil {
		bl.Cost.Halo()
	}
}

func (bl Blocks) barrier() {
	if bl.Cost != nil {
		bl.Cost.Barrier()
	}
}

// Dot returns the inner product of a and b: each block's partial sum,
// added in block order.
func (bl Blocks) Dot(a, b Vector, st *Stats) float64 {
	var sum float64
	for w, lo := range bl.Lo {
		hi := bl.Hi[w]
		sum += Dot(a[lo:hi], b[lo:hi], nil)
		bl.work(w, int64(2*(hi-lo)), st)
	}
	return sum
}

// Axpy computes y += alpha*x block by block.
func (bl Blocks) Axpy(alpha float64, x, y Vector, st *Stats) {
	for w, lo := range bl.Lo {
		hi := bl.Hi[w]
		Axpy(alpha, x[lo:hi], y[lo:hi], nil)
		bl.work(w, int64(2*(hi-lo)), st)
	}
}

// MulVec computes out = A*x block by block.  A block reads x outside its
// rows, so on a machine the caller calls the hook's Halo first.
func (bl Blocks) MulVec(a *CSR, x, out Vector, st *Stats) {
	for w, lo := range bl.Lo {
		hi := bl.Hi[w]
		a.MulVecRows(x, out, lo, hi, nil)
		bl.work(w, int64(2*(a.RowPtr[hi]-a.RowPtr[lo])), st)
	}
}

// residual computes r = b - A*x block by block, each block's product and
// subtraction one phase.
func (bl Blocks) residual(a *CSR, x, b, r Vector, st *Stats) {
	for w, lo := range bl.Lo {
		hi := bl.Hi[w]
		a.MulVecRows(x, r, lo, hi, nil)
		for i := lo; i < hi; i++ {
			r[i] = b[i] - r[i]
		}
		bl.work(w, int64(2*(a.RowPtr[hi]-a.RowPtr[lo])+(hi-lo)), st)
	}
}

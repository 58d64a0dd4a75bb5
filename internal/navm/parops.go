package navm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/spvm"
)

// forallType is the internal task type backing Forall and Pardo.  Its code
// block is loaded into every kernel at runtime construction.
const forallType = "__forall"

// forallCodeWords sizes the internal dispatch code block.
const forallCodeWords = 64

// solverType is the task type behind the distributed solver workers.
const solverType = "__solver"

// registerInternalTypes loads the built-in task types into every kernel.
func (rt *Runtime) registerInternalTypes() {
	rt.types[forallType] = func(tc *TaskCtx, replica int) error {
		rt.mu.Lock()
		body := rt.forallBodies[int64(tc.Param(0))]
		rt.mu.Unlock()
		if body == nil {
			return fmt.Errorf("navm: forall dispatch lost body %d", int64(tc.Param(0)))
		}
		return body(tc, replica)
	}
	for _, k := range rt.kernels {
		k.Handle(&spvm.Message{Type: spvm.MsgLoadCode, CodeName: forallType, CodeWords: forallCodeWords, LocalWords: 16})
		k.Handle(&spvm.Message{Type: spvm.MsgLoadCode, CodeName: solverType, CodeWords: 256, LocalWords: 32})
	}
}

// Forall runs body for every index 0..n-1 as parallel tasks — the NAVM
// "forall loop: do all iterations in parallel if possible".  It blocks
// until every iteration terminates and returns the first error.
func (tc *TaskCtx) Forall(n int, body TaskFunc) error {
	if n <= 0 {
		return fmt.Errorf("navm: forall over %d iterations", n)
	}
	rt := tc.rt
	rt.mu.Lock()
	key := rt.nextForall
	rt.nextForall++
	if rt.forallBodies == nil {
		rt.forallBodies = map[int64]TaskFunc{}
	}
	rt.forallBodies[key] = body
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.forallBodies, key)
		rt.mu.Unlock()
	}()
	g, err := tc.Initiate(forallType, n, []float64{float64(key)})
	if err != nil {
		return err
	}
	return g.Wait(tc)
}

// Pardo runs each statement in parallel — "pardo ... end: do all
// statements in parallel" — and blocks until all complete.
func (tc *TaskCtx) Pardo(stmts ...func(tc *TaskCtx) error) error {
	if len(stmts) == 0 {
		return nil
	}
	return tc.Forall(len(stmts), func(child *TaskCtx, i int) error {
		return stmts[i](child)
	})
}

// Broadcast sends data to a set of tasks ("broadcast data to a set of
// tasks").  The hardware cost is one network message per distinct
// destination cluster (the network multicasts at cluster granularity);
// each receiver finds the payload in its mailbox via Recv.
func (tc *TaskCtx) Broadcast(data []float64, targets []*TaskCtx) error {
	rt := tc.rt
	words := int64(len(data))
	sent := map[int]bool{}
	for _, dst := range targets {
		if dst.pe.Cluster != tc.pe.Cluster && !sent[dst.pe.Cluster] {
			rt.machine.Network().Transfer(tc.pe.Cluster, dst.pe.Cluster, words, tc.pe.Clock())
			sent[dst.pe.Cluster] = true
			rt.ctr.message(words)
		}
	}
	for _, dst := range targets {
		payload := append([]float64(nil), data...)
		dst.mailboxPut(payload)
		// The receiver cannot proceed past Recv before the data
		// arrives.
		dst.pe.Sync(tc.pe.Clock())
	}
	return nil
}

// mailboxPut appends a payload to the task's mailbox.
func (tc *TaskCtx) mailboxPut(data []float64) {
	tc.mu.Lock()
	if tc.mailbox == nil {
		tc.mailbox = make(chan []float64, 64)
	}
	mb := tc.mailbox
	tc.mu.Unlock()
	mb <- data
}

// Recv blocks until a broadcast payload arrives and returns it.
func (tc *TaskCtx) Recv() []float64 {
	tc.mu.Lock()
	if tc.mailbox == nil {
		tc.mailbox = make(chan []float64, 64)
	}
	mb := tc.mailbox
	tc.mu.Unlock()
	return <-mb
}

// ProcFunc is a remotely callable procedure: it runs on a PE in the
// cluster owning the window's data and returns result values.
type ProcFunc func(callee *TaskCtx, w *Window, args []float64) ([]float64, error)

// RegisterProcedure installs a remote procedure and loads its code into
// every kernel.
func (rt *Runtime) RegisterProcedure(name string, codeWords, localWords int64, fn ProcFunc) error {
	rt.mu.Lock()
	if rt.procs == nil {
		rt.procs = map[string]ProcFunc{}
	}
	rt.procs[name] = fn
	rt.mu.Unlock()
	msg := &spvm.Message{Type: spvm.MsgLoadCode, CodeName: name, CodeWords: codeWords, LocalWords: localWords}
	for _, k := range rt.kernels {
		if _, err := k.Handle(msg); err != nil {
			return err
		}
	}
	return nil
}

// RemoteCall performs the NAVM remote procedure call: the call executes
// in the cluster that holds the data visible in the window ("location
// determined by location of data visible in a window"), and the results
// return to the caller in a remote-return message.
func (tc *TaskCtx) RemoteCall(proc string, w *Window, args []float64) ([]float64, error) {
	rt := tc.rt
	rt.mu.Lock()
	fn := rt.procs[proc]
	rt.mu.Unlock()
	if fn == nil {
		return nil, fmt.Errorf("%w: procedure %q", ErrUnknownTaskType, proc)
	}
	dest := w.Arr.homeCluster
	kern := rt.kernels[dest]
	msg := &spvm.Message{
		Type: spvm.MsgRemoteCall, Procedure: proc, Caller: tc.ID,
		Window: w.Desc(), Params: args,
	}
	done, _, err := rt.machine.Send(tc.pe.ID, dest, msg.Words(), tc.pe.Clock(), rt.machine.Config().KernelDecodeCycles)
	if err != nil {
		return nil, err
	}
	ids, err := kern.Handle(msg)
	if err != nil {
		return nil, err
	}
	rt.ctr.message(msg.Words())

	// Bind the callee to a PE in the data's cluster and run it.
	pe, err := rt.machine.PlaceWorkerInCluster(dest)
	if err != nil {
		return nil, err
	}
	pe.Sync(done)
	callee := &TaskCtx{
		ID: ids[0], Type: proc, Parent: tc.ID,
		rt: rt, pe: pe, kern: kern, params: args,
		resume: make(chan struct{}, 1), done: make(chan struct{}),
	}
	if rec := kern.Task(callee.ID); rec != nil {
		kern.Ready.Remove(callee.ID)
		rec.State = spvm.TaskRunning
	}
	results, err := fn(callee, w, args)
	if err != nil {
		kern.Handle(&spvm.Message{Type: spvm.MsgTerminate, Task: callee.ID, Parent: tc.ID})
		return nil, fmt.Errorf("navm: remote %q: %w", proc, err)
	}

	// Remote return: results travel back to the caller's cluster.
	ret := &spvm.Message{Type: spvm.MsgRemoteReturn, Caller: tc.ID, Params: results}
	arrival := rt.machine.Network().Transfer(dest, tc.pe.Cluster, ret.Words(), pe.Clock())
	tc.pe.Sync(arrival)
	if _, err := tc.kern.Handle(ret); err != nil {
		return nil, err
	}
	rt.ctr.message(ret.Words())
	kern.Handle(&spvm.Message{Type: spvm.MsgTerminate, Task: callee.ID, Parent: tc.ID})
	return results, nil
}

// ParallelDot computes the inner product of two n×1 arrays with p
// parallel tasks, each reading its row-window of both vectors and writing
// a partial into the caller's partials array; the caller reduces.  This is
// the NAVM "inner product" linear algebra operation, whose
// synchronisation cost is the classic obstacle to CG scalability.
func (tc *TaskCtx) ParallelDot(x, y *Array, p int) (float64, error) {
	if x.Cols != 1 || y.Cols != 1 || x.Rows != y.Rows {
		return nil2f(fmt.Errorf("navm: ParallelDot needs equal-length vectors, got %dx%d · %dx%d", x.Rows, x.Cols, y.Rows, y.Cols))
	}
	n := x.Rows
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	partials := make([]float64, p)
	var mu sync.Mutex
	err := tc.Forall(p, func(child *TaskCtx, i int) error {
		lo, hi := blockRange(n, p, i)
		if lo >= hi {
			return nil
		}
		wx, err := RowWindow(x, lo, hi-lo)
		if err != nil {
			return err
		}
		wy, err := RowWindow(y, lo, hi-lo)
		if err != nil {
			return err
		}
		xv := wx.Read(child)
		yv := wy.Read(child)
		var s float64
		for k := range xv {
			s += xv[k] * yv[k]
		}
		child.Charge(int64(2 * len(xv)))
		mu.Lock()
		partials[i] = s
		mu.Unlock()
		// One word returns to the parent.
		child.rt.machine.Network().Transfer(child.pe.Cluster, tc.pe.Cluster, 1, child.pe.Clock())
		return nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, s := range partials {
		sum += s
	}
	tc.Charge(int64(p))
	return sum, nil
}

// ParallelAxpy computes y += alpha*x over n×1 arrays with p parallel
// tasks, each updating its own row window.
func (tc *TaskCtx) ParallelAxpy(alpha float64, x, y *Array, p int) error {
	if x.Cols != 1 || y.Cols != 1 || x.Rows != y.Rows {
		return fmt.Errorf("navm: ParallelAxpy needs equal-length vectors")
	}
	n := x.Rows
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return tc.Forall(p, func(child *TaskCtx, i int) error {
		lo, hi := blockRange(n, p, i)
		if lo >= hi {
			return nil
		}
		wx, err := RowWindow(x, lo, hi-lo)
		if err != nil {
			return err
		}
		wy, err := RowWindow(y, lo, hi-lo)
		if err != nil {
			return err
		}
		xv := wx.Read(child)
		yv := wy.Read(child)
		for k := range yv {
			yv[k] += alpha * xv[k]
		}
		child.Charge(int64(2 * len(yv)))
		return wy.Write(child, yv)
	})
}

// ParallelNorm2 returns the Euclidean norm of an n×1 array using
// ParallelDot.
func (tc *TaskCtx) ParallelNorm2(x *Array, p int) (float64, error) {
	d, err := tc.ParallelDot(x, x, p)
	if err != nil {
		return 0, err
	}
	tc.Charge(1)
	return math.Sqrt(d), nil
}

// blockRange splits n items into p contiguous blocks and returns block
// i's [lo,hi) range; earlier blocks are one longer when p does not divide
// n.
func blockRange(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func nil2f(err error) (float64, error) { return 0, err }

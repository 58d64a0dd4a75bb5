package navm

import (
	"fmt"

	"repro/internal/spvm"
)

// Array is a two-dimensional array owned by a single task, held in that
// task's cluster shared memory.  Per the NAVM data control rules, other
// tasks reach its contents only through windows; the owner may also access
// it directly.
type Array struct {
	// Name identifies the array in the runtime directory.
	Name string
	// Rows, Cols give the shape; a vector is Rows×1.
	Rows, Cols int
	// Owner is the owning task; its cluster holds the storage.
	Owner spvm.TaskID

	rt          *Runtime
	homeCluster int
	memHandle   int64
	data        []float64
	freed       bool
}

// NewArray creates a rows×cols array owned by tc, allocating its words in
// tc's cluster shared memory ("dynamic creation of data objects by a
// task").
func (tc *TaskCtx) NewArray(name string, rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("navm: array %q shape %dx%d", name, rows, cols)
	}
	rt := tc.rt
	cluster := rt.machine.Cluster(tc.pe.Cluster)
	words := int64(rows * cols)
	h, err := cluster.Memory.Alloc(words)
	if err != nil {
		return nil, fmt.Errorf("navm: array %q: %w", name, err)
	}
	a := &Array{
		Name: name, Rows: rows, Cols: cols, Owner: tc.ID,
		rt: rt, homeCluster: tc.pe.Cluster, memHandle: h,
		data: make([]float64, rows*cols),
	}
	rt.mu.Lock()
	if _, dup := rt.arrays[name]; dup {
		rt.mu.Unlock()
		cluster.Memory.Free(h)
		return nil, fmt.Errorf("navm: array %q already exists", name)
	}
	rt.arrays[name] = a
	rt.mu.Unlock()
	rt.ctr.wordsAlloc.Add(words)
	return a, nil
}

// NewVectorArray creates an n×1 array.
func (tc *TaskCtx) NewVectorArray(name string, n int) (*Array, error) {
	return tc.NewArray(name, n, 1)
}

// Free releases the array's storage.  Only the owner may free ("data
// lifetime = lifetime of owner task").
func (a *Array) Free(tc *TaskCtx) error {
	if tc.ID != a.Owner {
		return fmt.Errorf("%w: %q owned by task %d, freed by %d", ErrNotOwner, a.Name, a.Owner, tc.ID)
	}
	if a.freed {
		return fmt.Errorf("navm: array %q already freed", a.Name)
	}
	a.freed = true
	cluster := a.rt.machine.Cluster(a.homeCluster)
	if err := cluster.Memory.Free(a.memHandle); err != nil {
		return err
	}
	a.rt.mu.Lock()
	delete(a.rt.arrays, a.Name)
	a.rt.mu.Unlock()
	a.rt.ctr.wordsFreed.Add(int64(a.Rows * a.Cols))
	return nil
}

// HomeCluster returns the cluster holding the array.
func (a *Array) HomeCluster() int { return a.homeCluster }

// Words returns the storage size in words.
func (a *Array) Words() int64 { return int64(a.Rows * a.Cols) }

// Set writes element (i,j) directly.  Only the owner holds this right;
// other tasks must write through a window.
func (a *Array) Set(tc *TaskCtx, i, j int, v float64) error {
	if tc.ID != a.Owner {
		return fmt.Errorf("%w: direct Set on %q by task %d", ErrNotOwner, a.Name, tc.ID)
	}
	a.checkBounds(i, j)
	a.data[i*a.Cols+j] = v
	a.rt.machine.MemoryTouch(tc.pe.ID, 1)
	a.rt.ctr.local.Inc()
	return nil
}

// At reads element (i,j) directly (owner only).
func (a *Array) At(tc *TaskCtx, i, j int) (float64, error) {
	if tc.ID != a.Owner {
		return 0, fmt.Errorf("%w: direct At on %q by task %d", ErrNotOwner, a.Name, tc.ID)
	}
	a.checkBounds(i, j)
	a.rt.machine.MemoryTouch(tc.pe.ID, 1)
	a.rt.ctr.local.Inc()
	return a.data[i*a.Cols+j], nil
}

// FillRow bulk-writes row i (owner only), a common initialisation step.
func (a *Array) FillRow(tc *TaskCtx, i int, vals []float64) error {
	if tc.ID != a.Owner {
		return fmt.Errorf("%w: FillRow on %q by task %d", ErrNotOwner, a.Name, tc.ID)
	}
	if len(vals) != a.Cols {
		return fmt.Errorf("navm: FillRow %q: %d values for %d cols", a.Name, len(vals), a.Cols)
	}
	a.checkBounds(i, 0)
	copy(a.data[i*a.Cols:(i+1)*a.Cols], vals)
	a.rt.machine.MemoryTouch(tc.pe.ID, int64(a.Cols))
	a.rt.ctr.local.Add(int64(a.Cols))
	return nil
}

func (a *Array) checkBounds(i, j int) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("navm: array %q index (%d,%d) outside %dx%d", a.Name, i, j, a.Rows, a.Cols))
	}
}

// Lookup returns the named array from the runtime directory, or nil.
func (rt *Runtime) Lookup(name string) *Array {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.arrays[name]
}

package navm

import (
	"fmt"

	"repro/internal/spvm"
)

// Array is a two-dimensional array owned by a single task, held in that
// task's cluster shared memory.  Per the NAVM data control rules, other
// tasks reach its contents only through windows.
type Array struct {
	// Name labels the array in error messages.
	Name string
	// Rows, Cols give the shape; a vector is Rows×1.
	Rows, Cols int
	// Owner is the owning task; its cluster holds the storage.
	Owner spvm.TaskID

	homeCluster int
	data        []float64
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
	if err := cluster.Memory.Alloc(words); err != nil {
		return nil, fmt.Errorf("navm: array %q: %w", name, err)
	}
	rt.ctr.wordsAlloc.Add(words)
	return &Array{
		Name: name, Rows: rows, Cols: cols, Owner: tc.ID,
		homeCluster: tc.pe.Cluster, data: make([]float64, rows*cols),
	}, nil
}

// HomeCluster returns the cluster holding the array.
func (a *Array) HomeCluster() int { return a.homeCluster }

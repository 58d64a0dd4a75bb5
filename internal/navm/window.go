package navm

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/spvm"
)

// Window is a NAVM window on an array: a descriptor granting access to a
// rectangular region of another task's array.  Tasks read non-local data
// through windows.
type Window struct {
	// Arr is the target array.
	Arr *Array
	// Row0, Rows, Col0, Cols delimit the visible region.
	Row0, Rows, Col0, Cols int
}

// RowWindow creates a window on rows [row0, row0+rows) across all columns.
func RowWindow(a *Array, row0, rows int) (*Window, error) {
	if rows <= 0 || row0 < 0 || row0+rows > a.Rows {
		return nil, fmt.Errorf("navm: row window [%d:%d) outside array %q (%d rows)", row0, row0+rows, a.Name, a.Rows)
	}
	return &Window{Arr: a, Row0: row0, Rows: rows, Cols: a.Cols}, nil
}

// Desc returns the SPVM storage representation of the window, the
// descriptor the navm-window grammar specifies.  Its kind is "row": a task
// opens windows with RowWindow, across every column.
func (w *Window) Desc() *spvm.WindowDesc {
	return &spvm.WindowDesc{Array: w.Arr.Name, Kind: "row", Owner: w.Arr.Owner,
		Row0: int64(w.Row0), Rows: int64(w.Rows), Col0: int64(w.Col0), Cols: int64(w.Cols)}
}

// Words returns the number of words visible through the window.
func (w *Window) Words() int64 { return int64(w.Rows * w.Cols) }

// chargeAccess accounts one window access of the window's size by task tc:
// local accesses move through the cluster shared memory; non-local ones
// cross the network as one block message.
func (w *Window) chargeAccess(tc *TaskCtx) {
	rt := tc.rt
	words := w.Words()
	if tc.pe.Cluster == w.Arr.homeCluster {
		rt.machine.MemoryTouch(tc.pe.ID, words)
		rt.ctr.local.Inc()
	} else {
		rt.machine.RemoteFetch(tc.pe.ID, w.Arr.homeCluster, words)
		rt.ctr.remote.Inc()
		rt.ctr.message(words)
	}
}

// Read copies the data visible in the window into a row-major vector
// ("access data visible in a window").
func (w *Window) Read(tc *TaskCtx) linalg.Vector {
	w.chargeAccess(tc)
	out := make(linalg.Vector, 0, w.Rows*w.Cols)
	a := w.Arr
	for i := w.Row0; i < w.Row0+w.Rows; i++ {
		out = append(out, a.data[i*a.Cols+w.Col0:i*a.Cols+w.Col0+w.Cols]...)
	}
	return out
}

// ReadAt reads the single element (i,j) relative to the window origin,
// charging a one-word access.
func (w *Window) ReadAt(tc *TaskCtx, i, j int) (float64, error) {
	if i < 0 || i >= w.Rows || j < 0 || j >= w.Cols {
		return 0, fmt.Errorf("navm: window ReadAt(%d,%d) outside %dx%d", i, j, w.Rows, w.Cols)
	}
	one := &Window{Arr: w.Arr, Row0: w.Row0 + i, Rows: 1, Col0: w.Col0 + j, Cols: 1}
	one.chargeAccess(tc)
	a := w.Arr
	return a.data[(w.Row0+i)*a.Cols+w.Col0+j], nil
}

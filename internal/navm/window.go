package navm

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/spvm"
)

// WindowKind classifies a window descriptor, matching the paper's "row,
// column, block descriptors".
type WindowKind string

// Window kinds.
const (
	WinRow   WindowKind = "row"
	WinCol   WindowKind = "col"
	WinBlock WindowKind = "block"
)

// Window is a NAVM window on an array: a descriptor granting access to a
// rectangular region of another task's array.  Windows may be transmitted
// as parameters, further partitioned, and stored as values of variables;
// tasks communicate through windows.
type Window struct {
	// Arr is the target array.
	Arr *Array
	// Kind records how the window was created.
	Kind WindowKind
	// Row0, Rows, Col0, Cols delimit the visible region.
	Row0, Rows, Col0, Cols int
}

// NewWindow creates a block window onto a region of array a ("create
// window").  Any task may create a window on any array; access costs are
// charged at use.
func NewWindow(a *Array, row0, rows, col0, cols int) (*Window, error) {
	w := &Window{Arr: a, Kind: WinBlock, Row0: row0, Rows: rows, Col0: col0, Cols: cols}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// RowWindow creates a window on rows [row0, row0+rows) across all columns.
func RowWindow(a *Array, row0, rows int) (*Window, error) {
	w := &Window{Arr: a, Kind: WinRow, Row0: row0, Rows: rows, Col0: 0, Cols: a.Cols}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// ColWindow creates a window on columns [col0, col0+cols) across all rows.
func ColWindow(a *Array, col0, cols int) (*Window, error) {
	w := &Window{Arr: a, Kind: WinCol, Row0: 0, Rows: a.Rows, Col0: col0, Cols: cols}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Window) validate() error {
	a := w.Arr
	if a == nil {
		return fmt.Errorf("navm: window on nil array")
	}
	if w.Rows <= 0 || w.Cols <= 0 {
		return fmt.Errorf("navm: window %dx%d on %q is empty", w.Rows, w.Cols, a.Name)
	}
	if w.Row0 < 0 || w.Col0 < 0 || w.Row0+w.Rows > a.Rows || w.Col0+w.Cols > a.Cols {
		return fmt.Errorf("navm: window [%d:%d)x[%d:%d) outside array %q (%dx%d)",
			w.Row0, w.Row0+w.Rows, w.Col0, w.Col0+w.Cols, a.Name, a.Rows, a.Cols)
	}
	return nil
}

// Words returns the number of words visible through the window.
func (w *Window) Words() int64 { return int64(w.Rows * w.Cols) }

// Sub partitions the window further: a window relative to this window's
// coordinates ("windows may be ... further partitioned").
func (w *Window) Sub(row0, rows, col0, cols int) (*Window, error) {
	s := &Window{
		Arr: w.Arr, Kind: WinBlock,
		Row0: w.Row0 + row0, Rows: rows,
		Col0: w.Col0 + col0, Cols: cols,
	}
	if row0 < 0 || col0 < 0 || row0+rows > w.Rows || col0+cols > w.Cols {
		return nil, fmt.Errorf("navm: sub-window [%d:%d)x[%d:%d) outside window %dx%d",
			row0, row0+rows, col0, col0+cols, w.Rows, w.Cols)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

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

// Write assigns the data visible in the window from a row-major vector
// ("assign data visible in a window").
func (w *Window) Write(tc *TaskCtx, vals linalg.Vector) error {
	if int64(len(vals)) != w.Words() {
		return fmt.Errorf("navm: window write of %d values into %d-word window", len(vals), w.Words())
	}
	w.chargeAccess(tc)
	a := w.Arr
	k := 0
	for i := w.Row0; i < w.Row0+w.Rows; i++ {
		copy(a.data[i*a.Cols+w.Col0:i*a.Cols+w.Col0+w.Cols], vals[k:k+w.Cols])
		k += w.Cols
	}
	return nil
}

// ReadAt reads the single element (i,j) relative to the window origin,
// charging a one-word access.
func (w *Window) ReadAt(tc *TaskCtx, i, j int) (float64, error) {
	if i < 0 || i >= w.Rows || j < 0 || j >= w.Cols {
		return 0, fmt.Errorf("navm: window ReadAt(%d,%d) outside %dx%d", i, j, w.Rows, w.Cols)
	}
	one := &Window{Arr: w.Arr, Kind: WinBlock, Row0: w.Row0 + i, Rows: 1, Col0: w.Col0 + j, Cols: 1}
	one.chargeAccess(tc)
	a := w.Arr
	return a.data[(w.Row0+i)*a.Cols+w.Col0+j], nil
}

// Desc converts the window to its SPVM storage representation for
// transmission inside remote-call messages.
func (w *Window) Desc() *spvm.WindowDesc {
	return &spvm.WindowDesc{
		Array: w.Arr.Name, Kind: string(w.Kind), Owner: w.Arr.Owner,
		Row0: int64(w.Row0), Rows: int64(w.Rows),
		Col0: int64(w.Col0), Cols: int64(w.Cols),
	}
}

// WindowFromDesc reconstructs a window from its SPVM descriptor, looking
// the array up in the runtime directory.
func (rt *Runtime) WindowFromDesc(d *spvm.WindowDesc) (*Window, error) {
	a := rt.Lookup(d.Array)
	if a == nil {
		return nil, fmt.Errorf("navm: window names unknown array %q", d.Array)
	}
	w := &Window{
		Arr: a, Kind: WindowKind(d.Kind),
		Row0: int(d.Row0), Rows: int(d.Rows),
		Col0: int(d.Col0), Cols: int(d.Cols),
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return w, nil
}

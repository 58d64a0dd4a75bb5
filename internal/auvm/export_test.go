package auvm

import (
	"repro/internal/store"
)

// NewDatabase returns an empty in-memory database — the pre-durability
// behaviour, used by tests and embedded callers.
func NewDatabase() *Database {
	return NewDatabaseOn(store.NewMemStore(), store.BackendMem)
}

// Stresses returns a copy of a model's latest stresses, or nil, on the
// same terms as Solution.
func (w *Workspace) Stresses(model string) [][]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.entries[model]; e != nil {
		return copyRows(e.stresses)
	}
	return nil
}

package fem

import (
	"repro/internal/linalg"
)

// Assembled is a model's reduced (constraints eliminated) global system.
type Assembled struct {
	// K is the reduced stiffness matrix over free dofs.
	K *linalg.CSR
	// Free lists the global dof of each reduced index.
	Free []int
	// Index maps global dof -> reduced index (-1 when fixed).
	Index []int
	// Stats carries the assembly flop count.
	Stats linalg.Stats
}

// Assemble builds the reduced global stiffness matrix by the direct
// stiffness method: every element's stiffness scatters into the global
// system at its free dofs, with fixed rows/columns eliminated — the AUVM
// "solve structure model" operation's first half.  It is the one-shot
// form of the symbolic/numeric split: a Workspace is built, run once,
// and discarded.  Callers that assemble a topology repeatedly should
// retain a Workspace (NewWorkspace) instead.
func Assemble(m *Model) (*Assembled, error) {
	ws, err := NewWorkspace(m)
	if err != nil {
		return nil, err
	}
	return ws.Assemble()
}

// Expand scatters a reduced solution back to the full dof vector, with
// zeros at fixed dofs.  The vector is written over full when that has the
// full dof count, and allocated otherwise.
func (a *Assembled) Expand(x, full linalg.Vector) linalg.Vector {
	if len(full) != len(a.Index) {
		full = linalg.NewVector(len(a.Index))
	}
	for d, ri := range a.Index {
		if ri < 0 {
			full[d] = 0
		} else {
			full[d] = x[ri]
		}
	}
	return full
}

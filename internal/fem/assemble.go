package fem

import (
	"fmt"

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

// AssembleTriplets is the reference assembly path: element stiffnesses
// append to a triplet list that is then sorted into CSR form, with
// zero-valued entries skipped.  It is kept for differential testing and
// benchmarking against the Workspace scatter path; production callers
// use Assemble.  On shared entries the two paths agree bitwise (both
// sum contributions in element order); the Workspace pattern may store
// additional explicit zeros where an element stiffness entry is exactly
// zero.
func AssembleTriplets(m *Model) (*Assembled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	free, index := m.FreeDOFs()
	var ts []linalg.Triplet
	st := linalg.Stats{}
	var sc stiffScratch
	for ei, e := range m.Elements {
		dofs := ElementDOFs(e)
		ke, err := sc.stiffness(m, e, len(dofs))
		if err != nil {
			return nil, fmt.Errorf("fem: element %d: %w", ei, err)
		}
		for i, gi := range dofs {
			ri := index[gi]
			if ri < 0 {
				continue
			}
			for j, gj := range dofs {
				rj := index[gj]
				if rj < 0 {
					continue
				}
				v := ke.At(i, j)
				if v != 0 {
					ts = append(ts, linalg.Triplet{Row: ri, Col: rj, Val: v})
					st.Flops++
				}
			}
		}
	}
	k, err := linalg.NewCSRFromTriplets(len(free), ts)
	if err != nil {
		return nil, err
	}
	return &Assembled{K: k, Free: free, Index: index, Stats: st}, nil
}

// Expand scatters a reduced solution back to the full dof vector, with
// zeros at fixed dofs.
func (a *Assembled) Expand(x linalg.Vector) linalg.Vector {
	full := linalg.NewVector(len(a.Index))
	for ri, d := range a.Free {
		full[d] = x[ri]
	}
	return full
}

// Reduce gathers a full dof vector into reduced form.
func (a *Assembled) Reduce(full linalg.Vector) linalg.Vector {
	out := linalg.NewVector(len(a.Free))
	for ri, d := range a.Free {
		out[ri] = full[d]
	}
	return out
}

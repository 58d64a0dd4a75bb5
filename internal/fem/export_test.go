package fem

import (
	"fmt"
)

// Reactions computes the constrained-dof reaction forces K_full·u at the
// fixed dofs (useful for equilibrium checks: reactions balance applied
// loads).
func Reactions(m *Model, sol *Solution) (map[int]float64, error) {
	if err := checkSolutionFits(m, sol); err != nil {
		return nil, err
	}
	reac := map[int]float64{}
	var sc stiffScratch
	for ei, e := range m.Elements {
		dofs := ElementDOFs(e)
		ke, err := sc.stiffness(m, e, len(dofs))
		if err != nil {
			return nil, fmt.Errorf("fem: element %d: %w", ei, err)
		}
		for i, gi := range dofs {
			if !m.Fixed(gi) {
				continue
			}
			var f float64
			for j, gj := range dofs {
				f += ke.At(i, j) * sol.U[gj]
			}
			reac[gi] += f
		}
	}
	return reac, nil
}

// TipLoad builds a load set with a single downward force at the free-end
// bottom node of a CantileverTruss.
func TipLoad(name string, bays int, f float64) *LoadSet {
	return &LoadSet{Name: name, Entries: []LoadEntry{
		{DOF: DOF(bays, 1), Value: -f},
	}}
}

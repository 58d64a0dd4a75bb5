package navm

import (
	"context"

	"repro/internal/linalg"
)

// ParallelMultiColorSOR solves the distributed system by multi-colour SOR
// on P simulated workers.  Rows of one color are mutually independent, so
// each color sweep runs fully parallel across the row blocks; a halo
// exchange and barrier separate consecutive colors.  This is the
// iteration Adams analysed for the Finite Element Machine: it converges
// like Gauss-Seidel/SOR (roughly twice as fast as Jacobi on grid
// problems) while exposing Jacobi-like parallelism within each color.
// The iteration loop polls ctx like ParallelCG does.
func (rt *Runtime) ParallelMultiColorSOR(ctx context.Context, d *DistSystem, c *linalg.Coloring, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	if err := c.Validate(d.A); err != nil {
		return nil, SolveStats{}, err
	}
	return rt.solve(d, "parallel-multicolor-sor", func(bl linalg.Blocks, st *linalg.Stats) (linalg.Vector, int, float64, error) {
		return linalg.SOR(ctx, d.A, d.B, c.Rows, linalg.IterDefaults(opts, d.A.N, 100), bl, st, nil)
	})
}

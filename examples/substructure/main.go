// Substructure analysis: the paper's second level of parallelism —
// "parallelism in the substructure analysis of a larger structure".  A
// long plate is split into vertical bands; each band's interior unknowns
// are condensed onto the interface in parallel on distinct PEs, the small
// interface system is solved, and the interiors are recovered.  The
// result matches the direct solve to machine precision.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/navm"
	"repro/internal/obs"
)

func main() {
	// A slender structure: 32×6 cells of plane-stress elements,
	// clamped at the left, sheared at the tip.
	o := fem.RectGridOpts{NX: 32, NY: 6, W: 3200, H: 600, Mat: fem.Steel(), ClampLeft: true}
	model, err := fem.RectGrid("fuselage-panel", o)
	if err != nil {
		log.Fatal(err)
	}
	load := fem.EndLoad("gust", o, 0, -20000)

	// Reference: the sequential banded Cholesky solve.
	ref, err := fem.Solve(context.Background(), model, load, fem.SolveOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d nodes, %d elements, %d dofs\n",
		len(model.Nodes), len(model.Elements), model.NumDOF())

	fmt.Printf("%-6s %-14s %-12s %-12s %-10s\n",
		"bands", "iface.dofs", "makespan", "net.msgs", "max.err")
	for _, k := range []int{1, 2, 4, 8} {
		sub, err := fem.PartitionByX(model, k)
		if err != nil {
			log.Fatal(err)
		}
		cfg := arch.DefaultConfig()
		cfg.Clusters = 4
		cfg.PEsPerCluster = 4
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		sol, err := fem.SolveSubstructured(context.Background(), model, sub, load, rt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-14d %-12d %-12d %-10.2e\n",
			k, len(sub.Interface), rt.Machine().Makespan(),
			rt.Machine().Network().TotalMessages(),
			linalg.MaxAbsDiff(sol.U, ref.U))
	}
	fmt.Println("\ncondensations of independent bands overlap on distinct PEs;")
	fmt.Println("the interface solve is the serial tail that bounds the speedup.")
}

// Quickstart: build a FEM-2 system, solve a plane-stress cantilever plate
// in parallel on the simulated machine, and recover stresses — the
// end-to-end path a structural engineer takes through the application
// user's virtual machine, driven through the typed command API.
package main

import (
	"context"
	"fmt"
	"log"

	fem2 "repro"
)

func main() {
	// A 4-cluster machine with 8 PEs per cluster (1 kernel + 7 workers
	// each), the baseline FEM-2 configuration.
	sys, err := fem2.New(fem2.WithClusters(4), fem2.WithPEsPerCluster(8))
	if err != nil {
		log.Fatal(err)
	}
	engineer := sys.Session("engineer")
	ctx := context.Background()

	// The AUVM operations as typed commands: generate a grid, load it,
	// solve it on 8 parallel workers, recover stresses, and file the
	// model in the shared database.  Each command renders its canonical
	// command line, and each typed result renders the REPL display line.
	commands := []fem2.Command{
		fem2.GenerateGrid{Name: "wing-panel", NX: 16, NY: 8, W: 1600, H: 800, ClampLeft: true},
		fem2.EndLoad{Model: "wing-panel", Set: "cruise", FY: -12000},
		fem2.SolveCommand{Model: "wing-panel", Set: "cruise", Parallel: 8},
		fem2.StressesCommand{Model: "wing-panel"},
		fem2.Display{What: fem2.DisplayDisplacements, Model: "wing-panel"},
		fem2.Display{What: fem2.DisplayStresses, Model: "wing-panel"},
		fem2.StoreCommand{Model: "wing-panel"},
		fem2.ListCommand{What: fem2.ListDB},
	}
	for _, cmd := range commands {
		res, err := engineer.Do(ctx, cmd)
		if err != nil {
			log.Fatalf("%s: %v", cmd, err)
		}
		fmt.Printf("fem2> %s\n%s\n", cmd, res)
	}

	// Typed results carry their numbers as fields — no output parsing.
	res, err := engineer.Do(ctx, fem2.SolveCommand{Model: "wing-panel", Set: "cruise", Parallel: 8})
	if err != nil {
		log.Fatal(err)
	}
	sr := res.(*fem2.SolveResult)
	fmt.Printf("--- typed access: %d CG iterations, %d halo words, makespan %d cycles, |u|max %.4g at dof %d\n",
		sr.Iterations, sr.HaloWords, sr.Makespan, sr.MaxDisp, sr.MaxDOF)

	// The same solve is visible at every level of the stack: the
	// simulated machine reports its cost.
	fmt.Println("--- simulated machine ---")
	fmt.Print(sys.Machine.Report())
	fmt.Println("--- per-level requirements ---")
	fmt.Print(fem2.LevelReport(sys.StatsSnapshot()))
}

// The FEM-2 design method itself: the paper's primary contribution.  This
// example walks the method's three steps: (1) print the top-down layer
// specifications, (2) validate them against their formal H-graph
// grammars, and (3) iterate the hardware design against a representative
// workload until the proper match of hardware and software organizations
// is found.
package main

import (
	"context"
	"fmt"
	"log"

	fem2 "repro"
)

func main() {
	// Step 1: the four layers of virtual machine, top-down.
	fmt.Println("=== FEM-2 layers of virtual machine (top-down) ===")
	for _, layer := range fem2.FEM2Layers() {
		fmt.Println(layer)
	}

	// Step 2: each layer is formally specified; the specs must be
	// well-formed before the design can "firm up".
	sys, err := fem2.New()
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.ValidateDesign(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== all layer specifications validate against their grammars ✓ ===")

	// Step 3: iterate the hardware design.  The workload is the upper
	// layers' requirement: an engineer's parallel plate solve.
	workload := func(sys *fem2.System) error {
		s := sys.Session("engineer")
		for _, c := range []fem2.Command{
			fem2.GenerateGrid{Name: "plate", NX: 16, NY: 8, W: 16, H: 8, ClampLeft: true},
			fem2.EndLoad{Model: "plate", Set: "tip", FY: -1000},
			fem2.SolveCommand{Model: "plate", Set: "tip", Parallel: 8},
		} {
			if _, err := s.Do(context.Background(), c); err != nil {
				return err
			}
		}
		return nil
	}
	var candidates []fem2.Config
	for _, clusters := range []int{1, 2, 4, 8} {
		cfg := fem2.DefaultConfig()
		cfg.Clusters = clusters
		cfg.PEsPerCluster = 5
		candidates = append(candidates, cfg)
	}
	it := &fem2.DesignIterator{Candidates: candidates, Workload: workload}
	best, history, err := it.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== design iteration history ===")
	fmt.Printf("%-6s %-9s %-13s %-12s %-12s %-6s\n",
		"iter", "clusters", "PEs/cluster", "makespan", "utilization", "best")
	for _, h := range history {
		mark := ""
		if h.Best {
			mark = "*"
		}
		fmt.Printf("%-6d %-9d %-13d %-12d %-12.3f %-6s\n",
			h.Iteration, h.Req.Config.Clusters, h.Req.Config.PEsPerCluster,
			h.Req.Makespan, h.Req.Utilization, mark)
	}
	fmt.Printf("\nselected configuration: %d clusters × %d PEs "+
		"(makespan %d cycles, %d network messages, %d words of storage)\n",
		best.Config.Clusters, best.Config.PEsPerCluster,
		best.Makespan, best.Messages, best.StorageWords)
}

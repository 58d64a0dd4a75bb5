// Formal specification in action: H-graph semantics as the FEM-2 design
// method uses it.  This example prints the formal grammar of the system
// programmer's VM message formats, builds the H-graph model of a live
// message, validates it, and demonstrates that a corrupted message is
// rejected.
package main

import (
	"fmt"
	"log"

	"repro/internal/hgraph"
	"repro/internal/spvm"
)

func main() {
	// 1. The formal definition of the SPVM message types the NAVM sends.
	g := hgraph.SPVMMessageGrammar()
	fmt.Println(g)

	// 2. A live runtime message, modeled as an H-graph and validated
	// against the grammar.
	msg := &spvm.Message{
		Type: spvm.MsgInitiate, TaskType: "cg-worker",
		Replications: 16, Parent: 1, Params: []float64{64, 1e-8},
	}
	model := msg.ToHGraph()
	fmt.Println("H-graph model of a live initiate message:")
	fmt.Println(model)
	if errs := g.Validate(model); len(errs) == 0 {
		fmt.Println("message conforms to the formal specification ✓")
	} else {
		log.Fatalf("live message rejected: %v", errs)
	}

	// 3. Corrupt the message: the grammar catches it.
	model.Entry().Arc("replications", model.AddAtom("bad", hgraph.Str("sixteen")))
	errs := g.Validate(model)
	fmt.Printf("\nafter corrupting 'replications' to a string: %d violation(s)\n", len(errs))
	for _, e := range errs {
		fmt.Println("  ", e)
	}
}

// Command fem2sim runs the FEM-2 evaluation: every experiment table of
// package exp (E1-E16 plus the design-method iteration, DM), regenerated
// on the simulated machine.
//
// Usage:
//
//	fem2sim            # run everything
//	fem2sim -only E2   # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	fem2 "repro"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (E1..E16, DM)")
	flag.Parse()

	tables, err := fem2.RunAllExperiments()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fem2sim:", err)
		if len(tables) == 0 {
			os.Exit(1)
		}
	}
	printed := 0
	for _, t := range tables {
		if *only != "" && !strings.EqualFold(t.ID, *only) {
			continue
		}
		fmt.Println(t)
		printed++
	}
	if *only != "" && printed == 0 {
		fmt.Fprintf(os.Stderr, "fem2sim: no experiment %q\n", *only)
		os.Exit(1)
	}
}

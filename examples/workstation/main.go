// Workstation scripting: drives the AUVM command language through an
// embedded script — including building a truss by hand (define structure
// / node / element / fix), the workflow the paper's application user's
// VM enumerates operation by operation.  Instead of handing the script
// to Session.Run, this example walks the adapter the REPL itself is
// built from: Parse each line into its typed Command, interpret it with
// Do, and render the typed Result — showing the shell is nothing but a
// thin text layer over the typed API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"

	fem2 "repro"
)

const script = `
# A hand-built king-post truss, N/mm units.
define structure kingpost
material 200000 0.3 10 2000
node kingpost 0 0
node kingpost 2000 0
node kingpost 4000 0
node kingpost 2000 1500
element bar kingpost 0 1
element bar kingpost 1 2
element bar kingpost 0 3
element bar kingpost 2 3
element bar kingpost 1 3
fix node kingpost 0
fix dof kingpost 5
# 50 kN hanging at mid-span (dof 3 = node 1, y).
load kingpost deck 3 -50000
solve kingpost deck method cholesky
stresses kingpost
display model kingpost
display displacements kingpost
display stresses kingpost
store kingpost
list db
list workspace
quit
`

func main() {
	sys, err := fem2.New()
	if err != nil {
		log.Fatal(err)
	}
	s := sys.Session("drafter")
	ctx := context.Background()
	fmt.Println("FEM-2 scripted workstation session:")
	fmt.Println(strings.Repeat("-", 50))
	for _, line := range strings.Split(script, "\n") {
		cmd, err := fem2.Parse(line)
		if err != nil {
			log.Fatalf("%q: %v", line, err)
		}
		if cmd == nil { // blank line or comment
			continue
		}
		res, err := s.Do(ctx, cmd)
		if res != nil {
			fmt.Println(res)
		}
		if errors.Is(err, fem2.ErrQuit) {
			break
		}
		if err != nil {
			log.Fatalf("%s: %v", cmd, err)
		}
	}
	fmt.Println(strings.Repeat("-", 50))
	fmt.Printf("session issued %d AUVM operations\n",
		sys.StatsSnapshot().Counter("auvm.ops"))
}

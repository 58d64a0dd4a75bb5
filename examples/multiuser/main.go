// Multi-user operation: the paper's top level of parallelism —
// "parallelism in user requests for simultaneous solution of several
// independent problems" — plus the "provide multi-user access" hardware
// requirement.  Several engineers share one FEM-2 machine and one model
// database; their independent solves overlap through the asynchronous
// job service, and models flow between users through the database.
// Each user drives the typed command API, the request surface a
// multi-user front end serves.
package main

import (
	"context"
	"fmt"
	"log"

	fem2 "repro"
)

func main() {
	// 4 clusters × 8 PEs, with a 4-worker job scheduler in front.
	sys, err := fem2.New(fem2.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	// Four engineers, four independent problems on one machine.  Model
	// building is cheap and synchronous; the solves are heavy, so each
	// session submits its solve as a job and all four run concurrently
	// on the scheduler's workers (distinct models never serialize).
	users := []string{"alice", "bob", "chen", "dana"}
	ids := make([]fem2.JobID, len(users))
	for i, u := range users {
		s := sys.Session(u)
		model := fmt.Sprintf("panel-%s", u)
		for _, c := range []fem2.Command{
			fem2.GenerateGrid{Name: model, NX: 12, NY: 8, W: 1200, H: 800, ClampLeft: true},
			fem2.EndLoad{Model: model, Set: "op", FY: float64(-1000 * (i + 1))},
		} {
			if _, err := s.Do(ctx, c); err != nil {
				log.Fatalf("%s: %s: %v", u, c, err)
			}
		}
		id, err := s.SubmitAsync(ctx, fem2.SolveCommand{Model: model, Set: "op", Parallel: 4})
		if err != nil {
			log.Fatalf("%s: submit: %v", u, err)
		}
		ids[i] = id
		fmt.Printf("%s submitted %s\n", u, id)
	}

	// The jobs verb shows the shared scheduler's view of all four.
	out, err := sys.Session("alice").Execute("jobs")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	// Wait for every solve, then store the results; per-job attribution
	// (flops, AUVM ops) comes back on the job snapshots.
	for i, u := range users {
		s := sys.Session(u)
		res, err := sys.Jobs.Wait(ctx, ids[i])
		if err != nil {
			log.Fatalf("%s: %s: %v", u, ids[i], err)
		}
		if _, err := s.Do(ctx, fem2.StoreCommand{Model: fmt.Sprintf("panel-%s", u)}); err != nil {
			log.Fatal(err)
		}
		snap, _ := sys.Jobs.Status(ids[i])
		fmt.Printf("%s: %v  [%d flops]\n", u, res, snap.Flops)
	}

	// The solves shared the machine: utilization stays high because
	// each solve's workers landed on the least-loaded PEs.
	fmt.Printf("\nshared machine after %d concurrent solves:\n", len(users))
	fmt.Print(sys.Machine.Report())

	// The database is the shared data path: dana reviews alice's model.
	dana := sys.Session("dana")
	res, err := dana.Do(ctx, fem2.RetrieveCommand{Name: "panel-alice"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	res, err = dana.Do(ctx, fem2.SolveCommand{Model: "panel-alice", Set: "op", Method: "cholesky"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dana re-checked alice's panel sequentially:", res)
}

package fem2_test

import (
	"context"
	"path/filepath"
	"testing"

	fem2 "repro"
)

// settleScript submits one job of every verb that can run as a job, each
// leaving its model ready for the next.  Some fail (a retrieve of a model
// never stored); the rest are done.
func settleScript(dir string) []string {
	snap := filepath.Join(dir, "ws.snap")
	return []string{
		"ping", "version", "help", "stats",
		"define structure frame", "material 200000 0.3 1 10",
		"node frame 0 0", "node frame 1 0", "node frame 0 1",
		"element bar frame 0 1", "element cst frame 0 1 2",
		"fix node frame 0", "fix dof frame 5",
		"loadset frame dead", "load frame dead 2 -50",
		"generate grid g 4 2 4 2 clamp-left", "generate truss t 3 1000 800", "generate bar b 4 100",
		"load g l endload 0 -100", "solve g l", "solve g l method cg", "stresses g",
		"display displacements g", "display stresses g", "display model frame",
		"store g", "list db", "list workspace", "retrieve g", "retrieve nowhere", "delete g", "delete g",
		"snapshot " + snap, "restore " + snap,
	}
}

// TestJobRenderingsSurviveSettling: for every verb that can run as a
// job, what status, wait and jobs render of it is byte-identical before
// the first wait settles it and after — when a done job is read back
// from its journal record — on the mem and the file store, and again
// after the file store is reopened.
func TestJobRenderingsSurviveSettling(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			opts := []fem2.Option{fem2.WithWorkers(1)}
			if backend == "file" {
				opts = append(opts, fileStoreOpts(filepath.Join(dir, "fem2.db")))
			}
			sys, err := fem2.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { sys.Close() }()
			s := sys.Session("eng")
			ctx := context.Background()
			script := settleScript(dir)
			ids := make([]fem2.JobID, len(script))
			for i, line := range script {
				cmd, err := fem2.Parse(line)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				if ids[i], err = s.SubmitAsync(ctx, cmd); err != nil {
					t.Fatalf("submit %q: %v", line, err)
				}
				// Each job finishes before the next is submitted, unwaited.
				for {
					snap, err := sys.Jobs.Status(ids[i])
					if err != nil {
						t.Fatal(err)
					}
					if snap.State.Terminal() {
						break
					}
				}
			}
			render := func(line string) string {
				out, err := s.Execute(line)
				if err != nil {
					return "error: " + err.Error()
				}
				return out
			}
			// renderAll renders each job's status and wait, then jobs.
			renderAll := func() []string {
				var out []string
				for _, id := range ids {
					out = append(out, render("status "+id.String()), render("wait "+id.String()))
				}
				return append(out, render("jobs"))
			}
			var want []string
			for _, id := range ids {
				want = append(want, render("status "+id.String()), "")
			}
			want = append(want, render("jobs"))
			// The first wait of each job delivers its outcome: a done job
			// settles.
			for i, id := range ids {
				want[2*i+1] = render("wait " + id.String())
			}
			if n := sys.Obs.Gauge("job.settled").Load(); n == 0 || n == int64(len(ids)) {
				t.Fatalf("%d of %d jobs settled, want the done ones", n, len(ids))
			}
			compare := func(when string, got []string) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: %q renders\n%s\nwant\n%s", when, script[min(i/2, len(script)-1)], got[i], want[i])
					}
				}
			}
			compare("settled", renderAll())
			if backend != "file" {
				return
			}
			sys.Close()
			if sys, err = fem2.New(opts...); err != nil {
				t.Fatal(err)
			}
			s = sys.Session("eng")
			compare("reopened", renderAll())
		})
	}
}

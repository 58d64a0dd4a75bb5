package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/obs"
	"repro/internal/store"
)

// run executes command lines on a session and returns the last output.
func run(t *testing.T, s *auvm.Session, lines ...string) string {
	t.Helper()
	var out string
	for _, line := range lines {
		var err error
		if out, err = s.Execute(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	return out
}

// storeAndSolve leaves one stored model and one terminal job behind.
func storeAndSolve(t *testing.T, sys *System) {
	t.Helper()
	run(t, sys.Session("eng"),
		"generate grid plate 4 2 4 2 clamp-left", "load plate tip endload 0 -100",
		"store plate", "submit solve plate tip", "wait job-1")
}

// wantRecovered checks that sys serves what storeAndSolve left.
func wantRecovered(t *testing.T, sys *System) {
	t.Helper()
	s := sys.Session("later")
	if out := run(t, s, "list db"); !strings.Contains(out, "plate") {
		t.Errorf("list db after reopen = %q, want the stored plate", out)
	}
	if out := run(t, s, "status job-1"); !strings.Contains(out, "done") {
		t.Errorf("status job-1 after reopen = %q, want the terminal record", out)
	}
}

// TestOpen covers the one constructor's configurations: what used to be
// five constructors is the presence or absence of a store path and of
// ClusterOpts.
func TestOpen(t *testing.T) {
	file := func(t *testing.T) store.Config {
		return store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}
	}
	open := func(t *testing.T, o Options) *System {
		t.Helper()
		o.Arch, o.Workers = arch.DefaultConfig(), 1
		sys, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}

	t.Run("standalone-mem", func(t *testing.T) {
		sys := open(t, Options{})
		if sys.StorageBackend() != "mem" || sys.Cluster != nil || sys.ClusterRole() != "" || sys.Degraded() {
			t.Errorf("backend %q, cluster %v, role %q, degraded %v", sys.StorageBackend(), sys.Cluster, sys.ClusterRole(), sys.Degraded())
		}
		if v, err := sys.Store.Get(store.KeyFormat); err != nil || string(v) != "3" {
			t.Errorf("format key = %q, %v", v, err)
		}
		storeAndSolve(t, sys)
		wantRecovered(t, sys) // same process: trivially still there
	})

	t.Run("standalone-file", func(t *testing.T) {
		sc := file(t)
		first := open(t, Options{Store: sc})
		storeAndSolve(t, first)
		first.Close()
		second := open(t, Options{Store: sc})
		if second.StorageBackend() != "file" {
			t.Errorf("backend %q", second.StorageBackend())
		}
		wantRecovered(t, second) // journal recovered inside Open
	})

	t.Run("clustered-file", func(t *testing.T) {
		sc := file(t)
		var promotedA, promotedB atomic.Int64
		member := func(name string, promoted *atomic.Int64) *System {
			return open(t, Options{Store: sc, Cluster: &ClusterOpts{
				Owner: name, Advertise: name + ":1", TTL: 100 * time.Millisecond,
				OnPromote: func(epoch int64) { promoted.Store(epoch) }}})
		}
		a := member("a", &promotedA)
		if a.ClusterRole() != "leader" || promotedA.Load() != 1 {
			t.Fatalf("founder on return: role %q, promoted at epoch %d; want leader at 1", a.ClusterRole(), promotedA.Load())
		}
		storeAndSolve(t, a)
		b := member("b", &promotedB)
		if b.ClusterRole() != "follower" || b.ClusterLeader() != "a:1" || promotedB.Load() != 0 {
			t.Fatalf("second member: role %q, leader %q, promoted %d", b.ClusterRole(), b.ClusterLeader(), promotedB.Load())
		}
		if err := b.Store.Put("x", nil); err == nil {
			t.Error("a follower's store accepted a write")
		}
		a.Cluster.Abandon() // crash: the lease is left to expire
		deadline := time.Now().Add(5 * time.Second)
		for b.ClusterRole() != "leader" {
			if time.Now().After(deadline) {
				t.Fatal("b never took over")
			}
			time.Sleep(time.Millisecond)
		}
		if promotedB.Load() != 2 {
			t.Errorf("b promoted at epoch %d, want 2", promotedB.Load())
		}
		// Promotion sealed the log and replayed the journal a wrote.
		wantRecovered(t, b)
		if err := b.Store.Put("x", nil); err != nil {
			t.Errorf("the new leader's store refused a write: %v", err)
		}
	})

	// copyFixture writes testdata/name to a fresh store path.
	copyFixture := func(t *testing.T, name string) store.Config {
		t.Helper()
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		sc := file(t)
		if err := os.WriteFile(sc.Path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// wantUpgraded checks that sys's store is at format 3 and holds
	// m:mixed as the record store writes for its retrieved form.
	wantUpgraded := func(t *testing.T, sys *System) {
		t.Helper()
		if v, err := sys.Store.Get(store.KeyFormat); err != nil || string(v) != "3" {
			t.Errorf("format key = %q, %v; want 3", v, err)
		}
		record, err := sys.Store.Get(store.ModelKey("mixed"))
		if err != nil {
			t.Fatal(err)
		}
		run(t, sys.Session("check"), "retrieve mixed", "store mixed")
		if stored, err := sys.Store.Get(store.ModelKey("mixed")); err != nil || !bytes.Equal(stored, record) {
			t.Errorf("m:mixed after open: %x; store of its retrieved form wrote %x, %v", record, stored, err)
		}
	}

	// testdata/store_format1.db was written by the last format-1 commit
	// (meta:format 1, a gob modelDTO under m:mixed; auvm's format1Model)
	// and is never regenerated.  A daemon of format 2 stamped such a file
	// 2 at open and left its model in gob: the raw write stands in for it.
	t.Run("format-1-file", func(t *testing.T) {
		for name, stamp := range map[string]string{"as-written": "", "stamped-2": "2"} {
			t.Run(name, func(t *testing.T) {
				sc := copyFixture(t, "store_format1.db")
				if stamp != "" {
					raw, err := store.OpenFileStoreWith(sc.Path, store.FileOpts{})
					if err != nil {
						t.Fatal(err)
					}
					if err := raw.Put(store.KeyFormat, []byte(stamp)); err != nil {
						t.Fatal(err)
					}
					raw.Close()
				}
				sys := open(t, Options{Store: sc})
				wantUpgraded(t, sys)
				// The rendering the format-2 daemon printed for this file.
				if out := run(t, sys.Session("eng"), "retrieve mixed", "solve mixed tip"); out != `solved "mixed"/"tip" (cholesky): max |u| = 0.0033140949486243254 at dof 9` {
					t.Errorf("solve of the upgraded model = %q", out)
				}
			})
		}
	})

	// Two daemons open one format-1 file at once: one upgrade lands, and
	// the other daemon reads format 3 and opens.
	t.Run("old-shared-file-two-members", func(t *testing.T) {
		sc := copyFixture(t, "store_format1.db")
		sc.Shared = true
		systems := make([]*System, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range systems {
			wg.Add(1)
			go func() {
				defer wg.Done()
				systems[i], errs[i] = Open(Options{Arch: arch.DefaultConfig(), Workers: 1, Store: sc})
			}()
		}
		wg.Wait()
		for i, sys := range systems {
			if errs[i] != nil {
				t.Fatalf("member %d: %v", i, errs[i])
			}
			t.Cleanup(sys.Close)
		}
		for _, sys := range systems {
			wantUpgraded(t, sys)
		}
	})

	// testdata/store_history.db was written by the last commit that kept a
	// solve history (b7ac0fd): two stored models, one terminal job, and an
	// s:<name>:<seq> record for each of five solves.  Never regenerated.
	t.Run("file-with-solve-history", func(t *testing.T) {
		sys := open(t, Options{Store: copyFixture(t, "store_history.db")})
		n := 0
		sys.Store.Seek("s:", func(string, []byte) bool { n++; return true })
		if n != 0 {
			t.Errorf("%d s: records after open, want none", n)
		}
		s := sys.Session("eng")
		if out := run(t, s, "list db"); !strings.Contains(out, "plate") || !strings.Contains(out, "rod") {
			t.Errorf("list db = %q, want plate and rod", out)
		}
		if out := run(t, s, "status job-1"); !strings.Contains(out, "done") {
			t.Errorf("status job-1 = %q, want the terminal record", out)
		}
		// Served as before: the renderings are the ones the writer printed.
		if out := run(t, s, "retrieve plate", "solve plate tip"); out != `solved "plate"/"tip" (cholesky): max |u| = 0.0011146131964986782 at dof 25` {
			t.Errorf("solve of the retrieved plate = %q", out)
		}
		if out := run(t, s, "retrieve rod", "solve rod pull"); out != `solved "rod"/"pull" (cholesky): max |u| = 2.5000000000000018e-05 at dof 8` {
			t.Errorf("solve of the retrieved rod = %q", out)
		}
	})

	t.Run("clustered-needs-advertise", func(t *testing.T) {
		_, err := Open(Options{Arch: arch.DefaultConfig(), Store: file(t), Cluster: &ClusterOpts{Owner: "a"}})
		if err == nil || !strings.Contains(err.Error(), "advertise") {
			t.Errorf("Open without an advertise address = %v", err)
		}
	})
}

// TestSolveStoreBatches counts what a solve writes: a synchronous solve
// nothing; a submitted one its journal record twice on a file store
// (queued, terminal) and once on mem, which no restart reads, so only
// the terminal record is written.  Past the retention window a job on
// mem also deletes the record of the job its submit evicted, at once,
// so both backends write twice per job there.  A job waiting for its
// model has its queued record on file and none on mem; after wait both
// hold the terminal record (benchmark/probe.go reads it).
func TestSolveStoreBatches(t *testing.T) {
	for _, c := range []struct {
		name  string
		store func(t *testing.T) store.Config
		// queued says whether a submit writes the queued record.
		queued bool
	}{
		{"mem", func(*testing.T) store.Config { return store.Config{} }, false},
		{"file", func(t *testing.T) store.Config {
			return store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			perJob := int64(1)
			if c.queued {
				perJob = 2
			}
			sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 1, Store: c.store(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			s := sys.Session("eng")
			run(t, s, "generate grid plate 4 2 4 2 clamp-left", "load plate tip endload 0 -100")
			batches := sys.Obs.Histogram(obs.StoreBatchLatency)
			before := batches.Count()
			run(t, s, "solve plate tip")
			if got := batches.Count() - before; got != 0 {
				t.Errorf("a synchronous solve made %d store batches, want 0", got)
			}
			before = batches.Count()
			run(t, s, "submit solve plate tip", "wait job-1")
			if got := batches.Count() - before; got != perJob {
				t.Errorf("a submitted solve made %d store batches, want %d", got, perJob)
			}
			sys.Jobs.SetRetention(1)
			before = batches.Count()
			run(t, s, "submit solve plate tip", "wait job-2", "submit solve plate tip", "wait job-3")
			if got := batches.Count() - before; got != 4 {
				t.Errorf("two submitted solves past retention made %d store batches, want 4", got)
			}
			_, err = sys.Store.Get(store.JobKey(2))
			if forgotten := !c.queued; forgotten != errors.Is(err, store.ErrNotFound) {
				t.Errorf("job-2's record after job-3 evicted it: %v, want not found: %v", err, forgotten)
			}

			if err := sys.Jobs.Hold(context.Background(), "eng", "plate", command.Solve{Model: "plate", Set: "tip"}); err != nil {
				t.Fatal(err)
			}
			run(t, s, "submit solve plate tip")
			v, err := sys.Store.Get(store.JobKey(4))
			if c.queued && !strings.Contains(string(v), `"state":"queued"`) ||
				!c.queued && !errors.Is(err, store.ErrNotFound) {
				t.Errorf("record of a job waiting for its model: %q, %v, want queued: %v", v, err, c.queued)
			}
			sys.Jobs.Release("eng", "plate")
			run(t, s, "wait job-4")
			if v, err := sys.Store.Get(store.JobKey(4)); err != nil || !strings.Contains(string(v), `"state":"done"`) {
				t.Errorf("record after wait: %q, %v, want the terminal record", v, err)
			}
		})
	}
}

// TestOpenLoadsRecordsWithRetiredFields reopens a journal whose records
// carry the "attempt" and "resubmitted" keys an automatic resubmission
// of lost jobs once wrote: a lost job marked resubmitted, its
// replacement done at attempt 1, and a second replacement still running
// when its daemon died.  The decoder ignores the keys, and status and
// jobs render what they rendered while the keys were read.
func TestOpenLoadsRecordsWithRetiredFields(t *testing.T) {
	const (
		cmd = `{"verb":"solve","body":{"Model":"plate","Set":"tip","Method":"","Precond":"","Parallel":0,"Substructures":0}}`
		res = `{"kind":"solve","body":{"Model":"plate","Set":"tip","Backend":"cholesky","Precond":"","Parallel":0,"Substructures":0,` +
			`"Iterations":0,"Residual":0,"HaloWords":0,"Makespan":0,"Flops":120,"Refactored":false,"MaxDisp":0.25,"MaxDOF":7}}`
	)
	records := map[int64]string{
		1: `{"id":1,"owner":"eng@conn-1","model":"plate","cmd":` + cmd + `,"state":"failed","err":"job-1 lost to restart","resubmitted":true}`,
		2: `{"id":2,"owner":"eng@conn-1","model":"plate","cmd":` + cmd + `,"state":"done","result":` + res + `,"ops":1,"flops":120,"attempt":1}`,
		3: `{"id":3,"owner":"eng@conn-1","model":"plate","cmd":` + cmd + `,"state":"running","attempt":1}`,
	}
	sc := store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}
	open := func() *System {
		t.Helper()
		sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 1, Store: sc})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	for id, rec := range records {
		if err := sys.Store.Put(store.JobKey(id), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Close()

	sys = open()
	defer sys.Close()
	s := sys.Session("later")
	for _, c := range []struct{ line, want string }{
		{"status job-1", `job-1 failed (owner "eng@conn-1"): solve plate tip — job-1 lost to restart`},
		{"status job-2", `job-2 done (owner "eng@conn-1"): solve plate tip [120 flops, 0 cycles]`},
		{"status job-3", `job-3 failed (owner "eng@conn-1"): solve plate tip — job-3 lost to restart`},
		{"jobs", "jobs (3):\n" +
			"  job-1    failed    eng@conn-1 solve plate tip\n" +
			"  job-2    done      eng@conn-1 solve plate tip\n" +
			"  job-3    failed    eng@conn-1 solve plate tip"},
	} {
		if got := run(t, s, c.line); got != c.want {
			t.Errorf("%s after reopen:\n%s\nwant\n%s", c.line, got, c.want)
		}
	}
}

package fem2_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	fem2 "repro"
	"repro/internal/job"
)

// BenchmarkStoreKillRecovery is kept because nothing under benchmark/
// measures crash recovery yet: it is the only reading of the robustness
// headline number, SIGKILL-to-serving time.  A file-backed daemon is
// seeded with stored models and job history and killed; each iteration
// then starts a fresh daemon on that store and times process start + log
// replay + recovery until a network ping answers.  ns/op is the full
// outage window a supervisor restart incurs.
func BenchmarkStoreKillRecovery(b *testing.B) {
	dir := b.TempDir()
	bin := buildFem2d(b, dir)
	storePath := filepath.Join(dir, "fem2.db")

	// Seed: persist models and a solved job, then die hard mid-life so
	// every recovery replays a log a real crash would leave.
	daemon, addr := startDaemon(b, bin, storePath)
	cl, err := fem2.Dial(addr, "seed")
	if err != nil {
		daemon.Process.Kill()
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("m%02d", i)
		for _, line := range []string{
			fmt.Sprintf("generate grid %s 6 4 6 4 clamp-left", name),
			fmt.Sprintf("load %s tip endload 0 -100", name),
			"store " + name,
		} {
			if _, err := cl.Execute(ctx, line); err != nil {
				b.Fatalf("seeding %q: %v", line, err)
			}
		}
	}
	if _, err := cl.Execute(ctx, "submit solve m00 tip"); err != nil {
		b.Fatal(err)
	}
	if _, err := cl.Execute(ctx, "wait job-1"); err != nil {
		b.Fatal(err)
	}
	cl.Close()
	daemon.Process.Kill()
	daemon.Wait()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, addr := startDaemon(b, bin, storePath)
		cl, err := fem2.Dial(addr, "bench")
		if err != nil {
			d.Process.Kill()
			b.Fatal(err)
		}
		if res, err := cl.Do(ctx, fem2.PingCommand{}); err != nil || res.String() != "pong" {
			b.Fatalf("recovered daemon ping = %v, %v", res, err)
		}
		b.StopTimer()
		cl.Close()
		d.Process.Kill()
		d.Wait()
		b.StartTimer()
	}
}

// BenchmarkSystemOpen is kept because it is the only in-process reading
// of what a restart costs before the daemon serves: fem2.New over a file
// store laid out like the one the benchmark's tenants_mixed workload
// pre-populates — 64 stored 12×8 plates and 2 000 job records, each
// written queued and then done — which replays the log, checks the store
// format and loads the job journal.  Each iteration opens a fresh copy of
// the file, as each tenants_mixed set-up does; the timer runs over
// fem2.New alone.  Besides ns/op and allocs/op it reports reads/op: the
// read system calls (syscr in /proc/self/io, two of them its own reading
// of that file) the process made per open, where /proc/self/io exists.
func BenchmarkSystemOpen(b *testing.B) {
	openSeed.once.Do(func() { openSeed.data, openSeed.err = writeOpenSeed(b.TempDir()) })
	if openSeed.err != nil {
		b.Fatal(openSeed.err)
	}
	path := filepath.Join(b.TempDir(), "fem2.db")
	var reads int64
	_, counted := readSyscalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, openSeed.data, 0o644); err != nil {
			b.Fatal(err)
		}
		before, _ := readSyscalls()
		b.StartTimer()
		sys, err := fem2.New(fileStoreOpts(path))
		b.StopTimer()
		after, _ := readSyscalls()
		if err != nil {
			b.Fatal(err)
		}
		reads += after - before
		sys.Close()
		b.StartTimer()
	}
	if counted {
		b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	}
}

// openSeed is the store file BenchmarkSystemOpen opens, written once per
// process (the benchmark function runs once per b.N tried) by a system
// that stores the plates and runs the jobs, eight in flight, on the first
// eight of them.
var openSeed struct {
	once sync.Once
	data []byte
	err  error
}

func writeOpenSeed(dir string) ([]byte, error) {
	path := filepath.Join(dir, "seed.db")
	sys, err := fem2.New(fileStoreOpts(path))
	if err != nil {
		return nil, err
	}
	defer sys.Close() // idempotent: the file is read after the Close below
	ctx := context.Background()
	s := sys.Session("previous")
	for k := 0; k < 64; k++ {
		for _, line := range []string{
			fmt.Sprintf("generate grid p%d 12 8 12 8 clamp-left", k),
			fmt.Sprintf("load p%d tip endload 0 -1000", k),
			fmt.Sprintf("store p%d", k),
		} {
			if _, err := s.Execute(line); err != nil {
				return nil, fmt.Errorf("%s: %w", line, err)
			}
		}
	}
	const inFlight = 8
	ids := make([]job.JobID, inFlight)
	for n := 0; n < 2000; n += inFlight {
		for k := range ids {
			if ids[k], err = s.SubmitAsync(ctx, fem2.SolveCommand{Model: "p" + strconv.Itoa(k), Set: "tip"}); err != nil {
				return nil, err
			}
		}
		for _, id := range ids {
			if _, err := sys.Jobs.Wait(ctx, id); err != nil {
				return nil, err
			}
		}
	}
	sys.Close()
	return os.ReadFile(path)
}

// readSyscalls reads the process's count of read system calls, false
// where /proc/self/io does not exist.
func readSyscalls() (int64, bool) {
	stats, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	_, line, _ := bytes.Cut(stats, []byte("syscr: "))
	line, _, _ = bytes.Cut(line, []byte("\n"))
	n, err := strconv.ParseInt(string(line), 10, 64)
	return n, err == nil
}

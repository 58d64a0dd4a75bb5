package fem2_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	fem2 "repro"
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

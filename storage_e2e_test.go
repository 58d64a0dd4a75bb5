// Acceptance tests for the durable storage layer: a file-backed system
// serves its stored models and complete terminal job history across a
// restart; a daemon killed with SIGKILL mid-workload recovers with
// in-flight jobs deterministically failed; and snapshot/restore
// round-trips a workspace byte-identically, both locally and over the
// wire.  go test -race runs all of it under the race detector.
package fem2_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	fem2 "repro"
)

// fileStoreOpts selects the file backend at path for fem2.New.
func fileStoreOpts(path string) fem2.Option {
	return fem2.WithStore(fem2.StoreConfig{Backend: fem2.StoreFile, Path: path})
}

// TestSystemSurvivesRestart pins the in-process restart story: models
// stored in the database and terminal job records all come back when a
// new system opens the same store file.
func TestSystemSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fem2.db")
	ctx := context.Background()

	sys, err := fem2.New(fem2.WithWorkers(2), fileStoreOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Session("eng")
	mustExecute(t, s, "generate grid plate 6 4 6 4 clamp-left")
	mustExecute(t, s, "load plate tip endload 0 -250")
	solveOut := mustExecute(t, s, "solve plate tip")
	mustExecute(t, s, "store plate")
	id, err := s.SubmitAsync(ctx, fem2.SolveCommand{Model: "plate", Set: "tip"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Jobs.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	sys2, err := fem2.New(fem2.WithWorkers(2), fileStoreOpts(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sys2.Close()
	if got := sys2.StorageBackend(); got != "file" {
		t.Errorf("StorageBackend = %q, want file", got)
	}
	s2 := sys2.Session("eng")
	if out := mustExecute(t, s2, "list db"); !strings.Contains(out, "plate") {
		t.Errorf("list db after restart = %q", out)
	}
	mustExecute(t, s2, "retrieve plate")
	if out := mustExecute(t, s2, "solve plate tip"); out != solveOut {
		t.Errorf("solve on recovered model = %q, want %q", out, solveOut)
	}
	snap, err := sys2.Jobs.Status(id)
	if err != nil {
		t.Fatalf("job history lost across restart: %v", err)
	}
	if snap.State != fem2.JobDone || snap.Model != "plate" {
		t.Errorf("recovered job = %+v", snap)
	}
	if out := mustExecute(t, s2, "jobs"); !strings.Contains(out, "done") {
		t.Errorf("jobs after restart = %q", out)
	}
}

// mustExecute runs one command line on a local session.
func mustExecute(t *testing.T, s *fem2.Session, line string) string {
	t.Helper()
	out, err := s.Execute(line)
	if err != nil {
		t.Fatalf("command %q: %v", line, err)
	}
	return out
}

// buildFem2d compiles the daemon into dir and returns the binary path.
func buildFem2d(t testing.TB, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "fem2d")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fem2d")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building fem2d: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches fem2d on a loopback port with the given store
// file, parses the bound address from its log, and returns the process
// and address.
func startDaemon(t testing.TB, bin, storePath string) (*exec.Cmd, string) {
	t.Helper()
	return startFem2d(t, exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1",
		"-store", "file", "-store-path", storePath))
}

// startFem2d starts cmd, a fem2d serving on a loopback port, and returns
// it with the address its log reports.
func startFem2d(t testing.TB, cmd *exec.Cmd) (*exec.Cmd, string) {
	t.Helper()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrRe := regexp.MustCompile(`serving FEM-2 .* on (\S+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		// Drain the rest so the daemon never blocks on stderr.
		for sc.Scan() {
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("fem2d never reported its address")
		return nil, ""
	}
}

// TestDaemonKillRecovery is the kill-and-restart acceptance test: a
// fem2d daemon on a file store is SIGKILLed mid-workload; its restart
// serves every stored model and the job history, with the job that was
// in flight at the kill deterministically failed as lost to restart.
// The restart starts no job by itself: its job list holds exactly the
// ids issued before the kill, and the next submit gets the next id.
func TestDaemonKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	dir := t.TempDir()
	bin := buildFem2d(t, dir)
	storePath := filepath.Join(dir, "fem2.db")
	ctx := context.Background()

	daemon, addr := startDaemon(t, bin, storePath)
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		daemon.Process.Kill()
		t.Fatal(err)
	}
	mustRemote(t, cl, "generate grid plate 6 4 6 4 clamp-left")
	mustRemote(t, cl, "load plate tip endload 0 -250")
	mustRemote(t, cl, "store plate")
	mustRemote(t, cl, "generate grid big 64 64 64 64 clamp-left")
	mustRemote(t, cl, "load big heavy endload 0 -1000")
	// Two heavy solves on one worker: the first occupies it, so the
	// second is still queued (non-terminal) whenever the kill lands.
	res, err := cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "big", Set: "heavy"}})
	if err != nil {
		t.Fatal(err)
	}
	bigID := res.(*fem2.SubmitResult).ID
	res, err = cl.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "plate", Set: "tip"}})
	if err != nil {
		t.Fatal(err)
	}
	lostID := res.(*fem2.SubmitResult).ID

	// kill -9: no drain, no flush — the crash the journal exists for.
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()
	cl.Close()

	daemon2, addr2 := startDaemon(t, bin, storePath)
	defer func() {
		daemon2.Process.Signal(syscall.SIGTERM)
		daemon2.Wait()
	}()
	cl2, err := fem2.Dial(addr2, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if got := cl2.Storage(); got != "file" {
		t.Errorf("restarted daemon storage = %q, want file", got)
	}
	jobsOut := mustRemote(t, cl2, "jobs")
	var listed []int64
	for _, m := range regexp.MustCompile(`(?m)^\s*job-(\d+) `).FindAllStringSubmatch(jobsOut, -1) {
		id, _ := strconv.ParseInt(m[1], 10, 64)
		listed = append(listed, id)
	}
	if want := []int64{bigID, lostID}; !slices.Equal(listed, want) {
		t.Errorf("jobs after restart list %v, want exactly the ids issued before the kill %v:\n%s", listed, want, jobsOut)
	}
	if out := mustRemote(t, cl2, "list db"); !strings.Contains(out, "plate") {
		t.Errorf("list db after kill = %q", out)
	}
	mustRemote(t, cl2, "retrieve plate")
	if out := mustRemote(t, cl2, "solve plate tip"); !strings.Contains(out, "plate") {
		t.Errorf("solve on recovered model = %q", out)
	}
	res, err = cl2.Do(ctx, fem2.SubmitCommand{Cmd: fem2.SolveCommand{Model: "plate", Set: "tip"}})
	if err != nil {
		t.Fatal(err)
	}
	if id := res.(*fem2.SubmitResult).ID; id != lostID+1 {
		t.Errorf("first submit after restart got job-%d, want job-%d", id, lostID+1)
	}
	out := mustRemote(t, cl2, fmt.Sprintf("status job-%d", lostID))
	wantErr := fmt.Sprintf("job-%d lost to restart", lostID)
	if !strings.Contains(out, "failed") || !strings.Contains(out, wantErr) {
		t.Errorf("status of in-flight job after kill = %q, want failed %q", out, wantErr)
	}
}

// mustRemote runs one command line over the wire.
func mustRemote(t *testing.T, cl *fem2.Client, line string) string {
	t.Helper()
	out, err := cl.Execute(context.Background(), line)
	if err != nil {
		t.Fatalf("remote command %q: %v", line, err)
	}
	return out
}

// storageScript drives one session (local or remote) through the
// workload the snapshot acceptance test compares across transports.
var storageScript = []string{
	"material 200000 0.3 10 2000",
	"generate grid plate 6 4 6 4 clamp-left",
	"load plate tip endload 0 -250",
	"solve plate tip",
	"stresses plate",
}

// storageRenders is the follow-up script whose renderings must be
// byte-identical after a restore.
var storageRenders = []string{
	"display model plate",
	"display displacements plate",
	"display stresses plate",
	"list workspace",
}

// TestSnapshotRestoreOverWire pins the acceptance criterion: the same
// script snapshot on a local session and through a fem2d daemon
// restores into fresh sessions that render byte-identical results.
func TestSnapshotRestoreOverWire(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Local: run the script, snapshot, restore into a fresh session.
	sysA, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	local := sysA.Session("eng")
	for _, line := range storageScript {
		mustExecute(t, local, line)
	}
	localSnap := filepath.Join(dir, "local.snap")
	mustExecute(t, local, "snapshot "+localSnap)

	// Remote: identical script through a daemon; snapshot writes
	// server-side, which is this machine.
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, line := range storageScript {
		mustRemote(t, cl, line)
	}
	wireSnap := filepath.Join(dir, "wire.snap")
	out, err := cl.Execute(ctx, "snapshot "+wireSnap)
	if err != nil {
		t.Fatal(err)
	}
	localOut := mustExecute(t, local, "snapshot "+filepath.Join(dir, "again.snap"))
	if strings.ReplaceAll(out, wireSnap, "X") != strings.ReplaceAll(localOut, filepath.Join(dir, "again.snap"), "X") {
		t.Errorf("snapshot renderings diverged: %q vs %q", out, localOut)
	}
	if fi, err := os.Stat(wireSnap); err != nil || fi.Size() == 0 {
		t.Fatalf("wire snapshot file: %v", err)
	}

	// Both snapshots restore into fresh sessions that render the same
	// bytes — and match the originating session.
	want := renderAll(t, local)
	for name, snap := range map[string]string{"local": localSnap, "wire": wireSnap} {
		sysB, err := fem2.New()
		if err != nil {
			t.Fatal(err)
		}
		fresh := sysB.Session("fresh")
		mustExecute(t, fresh, "restore "+snap)
		if got := renderAll(t, fresh); got != want {
			t.Errorf("%s snapshot restore diverged:\n got: %q\nwant: %q", name, got, want)
		}
		sysB.Close()
	}

	// Restore also round-trips over the wire into a fresh daemon.
	_, srv2, addr2, _ := startServer(t, fem2.ServerConfig{})
	defer srv2.Shutdown(context.Background())
	cl2, err := fem2.Dial(addr2, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	mustRemote(t, cl2, "restore "+wireSnap)
	var got []string
	for _, line := range storageRenders {
		got = append(got, mustRemote(t, cl2, line))
	}
	if strings.Join(got, "\n") != want {
		t.Errorf("wire restore renderings diverged:\n got: %q\nwant: %q", strings.Join(got, "\n"), want)
	}
}

// renderAll collects the follow-up renderings from a local session.
func renderAll(t *testing.T, s *fem2.Session) string {
	t.Helper()
	var out []string
	for _, line := range storageRenders {
		out = append(out, mustExecute(t, s, line))
	}
	return strings.Join(out, "\n")
}

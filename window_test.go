package fem2_test

import (
	"context"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	fem2 "repro"
	"repro/internal/job"
)

// windowJobBytes bounds the live heap one retained submit+wait job costs
// a daemon with a full retention window, per store backend.  A job whose
// outcome a wait delivered is held once, by its journal record: on mem
// that record is in the store's map, on file it is on disk and the
// store's index holds its offset.  Held twice — the scheduler's job, its
// command and result beside the record — a job cost 1 094 B on mem and
// 566 B on file (linux/amd64, go1.24); held once, 642 and 114 B.
var windowJobBytes = map[string]int64{"mem": 760, "file": 200}

// TestRetentionWindowBytesPerJob fills the retention window with
// submit+wait jobs over loopback, as the iterate_small workload does, and
// bounds the live heap it grew by per retained job.
func TestRetentionWindowBytesPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 4 096-job window")
	}
	base := runtime.NumGoroutine()
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			// The last subtest's server and client may still be winding
			// down, their system reachable until they have.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			opts := []fem2.Option{fem2.WithWorkers(1)}
			if backend == "file" {
				opts = append(opts, fileStoreOpts(filepath.Join(t.TempDir(), "window.db")))
			}
			sys, err := fem2.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			srv := fem2.NewServer(sys, fem2.ServerConfig{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Shutdown(context.Background())
			cl, err := fem2.Dial(ln.Addr().String(), "steady")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			remotePlate(t, cl, "plate", 8, 6)
			// The first job warms the connection, the plate's factor and the
			// scheduler's pool; the rest fill the window and evict it.
			if _, _, err := submitAndWait(cl, "plate"); err != nil {
				t.Fatal(err)
			}
			before := liveHeap()
			for n := 0; n < job.DefaultRetainedJobs; n++ {
				if _, _, err := submitAndWait(cl, "plate"); err != nil {
					t.Fatal(err)
				}
			}
			per := (liveHeap() - before) / job.DefaultRetainedJobs
			t.Logf("%s: a retained job holds %d B of live heap", backend, per)
			if limit := windowJobBytes[backend]; per > limit {
				t.Errorf("%s: a retained job holds %d B of live heap, ceiling %d B", backend, per, limit)
			}
		})
	}
}

// liveHeap is the live heap after two full collections: the second
// empties what sync.Pools kept through the first.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

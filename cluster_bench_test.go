package fem2_test

import (
	"path/filepath"
	"testing"
	"time"

	fem2 "repro"
)

// BenchmarkClusterFailover is kept because nothing under benchmark/
// measures failover yet: how long after a leader's crash does the
// surviving follower serve writes?  The number is bounded below by the
// lease TTL (a crashed leader's lease must expire before anyone may take
// over) plus one follower poll plus the takeover work itself (seal the
// log, reload the database, replay the journal) — at the 150 ms TTL used
// here it reads ~153–162 ms, so it moves with the TTL, not with code.
func BenchmarkClusterFailover(b *testing.B) {
	const ttl = 150 * time.Millisecond
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := filepath.Join(b.TempDir(), "fem2.db")
		sysA, err := fem2.New(fem2.WithWorkers(1),
			fem2.WithStore(fem2.StoreConfig{Backend: fem2.StoreFile, Path: path}),
			fem2.WithCluster(fem2.ClusterOpts{Owner: "a", Advertise: "a:0", TTL: ttl}))
		if err != nil {
			b.Fatal(err)
		}
		sysB, err := fem2.New(fem2.WithWorkers(1),
			fem2.WithStore(fem2.StoreConfig{Backend: fem2.StoreFile, Path: path}),
			fem2.WithCluster(fem2.ClusterOpts{Owner: "b", Advertise: "b:0", TTL: ttl}))
		if err != nil {
			sysA.Close()
			b.Fatal(err)
		}
		if sysA.ClusterRole() != "leader" || sysB.ClusterRole() != "follower" {
			b.Fatalf("roles before the crash: a=%s b=%s", sysA.ClusterRole(), sysB.ClusterRole())
		}
		// Put some state where the takeover has to replay it.
		s := sysA.Session("eng")
		if _, err := s.Execute("generate grid plate 6 4 6 4 clamp-left"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Execute("store plate"); err != nil {
			b.Fatal(err)
		}

		b.StartTimer()
		sysA.Cluster.Abandon() // the crash: lease left to expire in place
		for sysB.ClusterRole() != "leader" {
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()

		sysB.Close()
		sysA.Close()
	}
}

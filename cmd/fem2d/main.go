// Command fem2d is the FEM-2 daemon: it serves one simulated FEM-2
// system over TCP to any number of concurrent network clients, each
// getting a private session over the shared database, scheduler, and
// simulated machine.  The protocol is length-prefixed JSON carrying the
// typed command language — see docs/protocol.md; `fem2 -connect
// host:port` is the matching interactive client.
//
// Usage:
//
//	fem2d [-addr :7432] [-clusters N] [-pes N] [-workers N]
//	      [-store mem|file] [-store-path fem2.db] [-store-sync]
//	      [-advertise host:port] [-lease-ttl 2s]
//	      [-max-jobs N]
//	      [-request-timeout 0]
//	      [-drain-timeout 30s] [-metrics 0] [-metrics-out file]
//
// With -store file -store-path fem2.db the daemon is durable: stored
// models and the job journal live in the store file, so a restarted daemon serves everything its predecessor did —
// jobs in flight at a crash come back deterministically failed with a
// "lost to restart" cause.  Such a job is not run again: sessions and
// their workspaces do not outlive the process, so its owner retrieves
// the model and submits anew.  -store-sync additionally fsyncs every
// batch (durable through power loss, not just process death) at a
// throughput cost.
//
// The daemon degrades instead of dying when its store does: after
// persistent write failures it flips to read-only (mutating verbs
// refuse with the degraded code, reads and job control keep serving)
// and a background probe re-arms writes when the backend recovers —
// see docs/robustness.md.  -request-timeout, when set, bounds each
// command's execution server-side (wait and submit are exempt).
//
// With -advertise the daemon joins (or founds) a cluster: any number
// of fem2d processes sharing one -store file coordinate through a
// lease in the store itself; the leaseholder serves writes, the rest
// serve reads and redirect mutating commands to the leader's
// advertised address, and a dead leader is replaced within about one
// -lease-ttl.  Point `fem2 -connect a:port,b:port` at several of them
// and the client follows redirects and fails over by itself.  See
// docs/cluster.md.
//
// Each connection is one tenant: -max-jobs bounds its in-flight jobs,
// and a submit past the bound is refused at once with the quota code.
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// refuses new mutating commands while job control still answers, waits
// up to -drain-timeout for running jobs and synchronous commands (then
// cancels the rest), flushes pending notifications, and exits.
//
// With -metrics <interval> the daemon streams one JSON line of live
// metrics per interval — jobs/s, queue depth, the factor cache's hit
// rate, per-verb latency histograms — to stderr, or appended to the
// -metrics-out file.  See docs/observability.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	fem2 "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7432", "TCP address to listen on")
	clusters := flag.Int("clusters", 4, "number of PE clusters")
	pes := flag.Int("pes", 8, "PEs per cluster (including the kernel PE)")
	workers := flag.Int("workers", 0, "most jobs the scheduler executes at once (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", 16, "max in-flight jobs per connection (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for running jobs and synchronous commands before cancelling them")
	quiet := flag.Bool("quiet", false, "suppress per-connection log lines")
	storeBackend := flag.String("store", "mem", "storage backend: mem | file")
	storePath := flag.String("store-path", "", "with -store file: the store's file path")
	storeSync := flag.Bool("store-sync", false, "with -store file: fsync every batch (durable through power loss, slower)")
	advertise := flag.String("advertise", "", "join a cluster over the shared -store file, advertising this address to redirected clients")
	leaseTTL := flag.Duration("lease-ttl", 0, "with -advertise: cluster lease lifetime (0 = default)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-command server-side execution bound (0 = none; wait and submit are exempt)")
	metricsInterval := flag.Duration("metrics", 0, "emit one JSON metrics line per interval (0 = off)")
	metricsOut := flag.String("metrics-out", "", "with -metrics: append metric lines to this file instead of stderr")
	flag.Parse()

	logger := log.New(os.Stderr, "fem2d: ", log.LstdFlags)
	opts := []fem2.Option{fem2.WithClusters(*clusters), fem2.WithPEsPerCluster(*pes),
		fem2.WithWorkers(*workers),
		fem2.WithStore(fem2.StoreConfig{Backend: *storeBackend, Path: *storePath, Sync: *storeSync}),
		fem2.WithStoreGuard(fem2.GuardOpts{OnChange: func(degraded bool) {
			if degraded {
				logger.Printf("store degraded: persistent write failures; serving read-only until the backend recovers")
			} else {
				logger.Printf("store recovered: writes re-armed")
			}
		}})}
	if *advertise != "" {
		if *storeBackend != "file" {
			fmt.Fprintln(os.Stderr, "fem2d: -advertise requires -store file (the store file is the coordination medium)")
			os.Exit(2)
		}
		host, _ := os.Hostname()
		opts = append(opts, fem2.WithCluster(fem2.ClusterOpts{
			Owner:     fmt.Sprintf("%s/%d", host, os.Getpid()),
			Advertise: *advertise,
			TTL:       *leaseTTL,
			OnPromote: func(epoch int64) {
				logger.Printf("cluster: serving as leader (epoch %d)", epoch)
			},
			OnDemote: func(reason string) {
				logger.Printf("cluster: serving as follower (%s)", reason)
			},
			Logf: logger.Printf,
		}))
	}
	sys, err := fem2.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fem2d:", err)
		os.Exit(1)
	}
	sys.Jobs.SetLogf(logger.Printf)

	if *metricsInterval > 0 {
		stopMetrics, err := obs.StartEmitter(sys.Obs, *metricsInterval, *metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fem2d:", err)
			os.Exit(1)
		}
		defer stopMetrics()
	}

	cfg := server.Config{MaxJobsPerSession: *maxJobs, RequestTimeout: *requestTimeout}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv := server.New(sys, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fem2d:", err)
		os.Exit(1)
	}
	logger.Printf("serving FEM-2 (%d clusters × %d PEs, storage %s) on %s",
		*clusters, *pes, sys.StorageBackend(), ln.Addr())
	if *advertise != "" {
		logger.Printf("cluster: %s (advertising %s)", sys.ClusterRole(), *advertise)
	}

	// Serve until a signal arrives, then drain gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fem2d:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining (timeout %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Printf("drain incomplete, remaining jobs cancelled: %v", err)
	}
	logger.Printf("bye")
}

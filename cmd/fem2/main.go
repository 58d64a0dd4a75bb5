// Command fem2 is the FEM-2 interactive workstation: the application
// user's virtual machine as a REPL.  A structural engineer defines
// models, generates grids, applies loads, solves (sequentially, in
// parallel on the simulated machine, or by substructuring), recovers
// stresses, and stores models in the shared database.
//
// Usage:
//
//	fem2 [-clusters N] [-pes N] [-workers N] [-store mem|file]
//	     [-store-path fem2.db] [-store-sync] [-script file]
//	     [-metrics 0] [-metrics-out file]
//	fem2 -connect host:port[,host:port...] [-notify] [-retries N]
//	     [-retry-backoff 50ms] [-request-timeout 0] [-script file]
//	     [-metrics 0] [-metrics-out file]
//
// Without -script it reads commands from stdin; type `help` for the
// command language.  Long-running solves can run asynchronously on the
// system's job scheduler: `submit solve ...` returns a job id at once,
// and `status`, `wait`, `cancel`, and `jobs` monitor and control it.
//
// With -store file -store-path fem2.db the local system's database and
// job history persist across runs; `snapshot <file>` / `restore <file>`
// save and load a whole workspace either way.
//
// With -connect the REPL runs against a fem2d daemon instead of an
// in-process system: the same command language, the same output lines,
// with jobs running server-side.  -notify subscribes the connection to
// the server's job-state notifications in the handshake and prints them
// as they arrive; without it the server sends none.  A dropped
// connection is redialed transparently up to -retries times per
// request (0 disables reconnection), replaying only the idempotent
// global verbs; -request-timeout bounds each request client-side
// (wait is exempt).  -connect may list several endpoints of one
// cluster, comma-separated: the client dials the first that answers,
// follows not-leader redirects to the leaseholder, and fails over to
// a surviving peer when a daemon dies (see docs/cluster.md).  In both
// modes SIGINT/SIGTERM cancels the in-flight command (and, connected,
// the session's server-side jobs) cleanly.
//
// With -metrics <interval> the workstation streams one JSON line of
// live metrics per interval to stderr (or appended to -metrics-out):
// locally the whole system's registry, connected the client's own
// reconnect/retry counters.  The `stats` verb prints the serving
// system's snapshot either way.  See docs/observability.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	fem2 "repro"
	"repro/internal/client"
	"repro/internal/obs"
)

func main() {
	clusters := flag.Int("clusters", 4, "number of PE clusters")
	pes := flag.Int("pes", 8, "PEs per cluster (including the kernel PE)")
	workers := flag.Int("workers", 0, "most jobs the scheduler executes at once (0 = GOMAXPROCS)")
	script := flag.String("script", "", "command script to run instead of stdin")
	user := flag.String("user", "engineer", "user name for the session")
	report := flag.Bool("report", false, "print the machine report on exit")
	connect := flag.String("connect", "", "serve the REPL from a fem2d daemon at host:port (comma-separate cluster endpoints)")
	notify := flag.Bool("notify", false, "with -connect: subscribe to job-state notifications and print them")
	storeBackend := flag.String("store", "mem", "storage backend: mem | file")
	storePath := flag.String("store-path", "", "with -store file: the store's file path")
	storeSync := flag.Bool("store-sync", false, "with -store file: fsync every batch (durable through power loss, slower)")
	retries := flag.Int("retries", 5, "with -connect: reconnect budget per request (0 = fail on first drop)")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "with -connect: base backoff between reconnect attempts")
	requestTimeout := flag.Duration("request-timeout", 0, "with -connect: per-request client-side deadline (0 = none; wait is exempt)")
	metricsInterval := flag.Duration("metrics", 0, "emit one JSON metrics line per interval (0 = off)")
	metricsOut := flag.String("metrics-out", "", "with -metrics: append metric lines to this file instead of stderr")
	flag.Parse()

	// SIGINT/SIGTERM cancel the root context: the in-flight solve (local
	// or remote) stops through the ordinary context plumbing instead of
	// the process dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	in := io.Reader(os.Stdin)
	banner := *script == ""
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fem2:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	if *connect != "" {
		// Connected, the local registry sees only the client's own
		// metrics (reconnects, retries); the server's live through the
		// stats verb.
		reg := fem2.NewObsRegistry()
		if *metricsInterval > 0 {
			stop, err := obs.StartEmitter(reg, *metricsInterval, *metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fem2:", err)
				os.Exit(1)
			}
			defer stop()
		}
		cl, err := client.DialWithOptions(*connect, *user, client.Options{
			MaxRetries: *retries, BaseBackoff: *retryBackoff,
			RequestTimeout: *requestTimeout, Obs: reg, Notify: *notify})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fem2:", err)
			os.Exit(1)
		}
		defer cl.Close()
		if banner {
			storage := cl.Storage()
			if storage == "" {
				storage = "unknown"
			}
			fmt.Printf("FEM-2 workstation connected to %s (session %s, storage %s). Type help for commands.\n",
				*connect, cl.Session(), storage)
		}
		if err := cl.Run(ctx, in, os.Stdout, *notify); err != nil {
			fmt.Fprintln(os.Stderr, "fem2:", err)
			os.Exit(1)
		}
		return
	}

	sys, err := fem2.New(fem2.WithClusters(*clusters), fem2.WithPEsPerCluster(*pes),
		fem2.WithWorkers(*workers),
		fem2.WithStore(fem2.StoreConfig{Backend: *storeBackend, Path: *storePath, Sync: *storeSync}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fem2:", err)
		os.Exit(1)
	}
	defer sys.Close()
	if *metricsInterval > 0 {
		stop, err := obs.StartEmitter(sys.Obs, *metricsInterval, *metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fem2:", err)
			os.Exit(1)
		}
		defer stop()
	}
	sess := sys.Session(*user)

	if banner {
		fmt.Printf("FEM-2 workstation (%d clusters × %d PEs). Type help for commands.\n",
			*clusters, *pes)
	}
	if err := sess.RunContext(ctx, in, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fem2:", err)
		os.Exit(1)
	}
	if *report {
		fmt.Print(sys.Machine.Report())
		fmt.Print(fem2.LevelReport(sys.StatsSnapshot()))
	}
}

// Command benchmark is the repo's yardstick: it starts a pre-built fem2d
// as a child process, drives it over TCP with internal/client in closed
// loops, checks every reply against in-process references, and prints
// every metric by name and unit.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	cfg := &config{scale: 1}
	name := flag.String("workload", "", "workload to run: iterate_small, refactor_large, resolve_large or tenants_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the command generator")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase: that many windows of a fixed job count, about a second each")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (layer probes and a traced phase) instead of the end-to-end ones")
	flag.StringVar(&cfg.fem2d, "fem2d", "", "path of the pre-built fem2d (go build repro/cmd/fem2d)")
	flag.StringVar(&cfg.out, "out", "out", "directory for store files and <workload>.trace.json")
	selftest := flag.Bool("selftest", false, "run every workload as two interleaved sets of ten runs and write NOISE.md")
	flag.Parse()
	cfg.trace = *trace != 0

	if *selftest && cfg.fem2d != "" {
		if err := selfTest(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.w = findWorkload(*name); cfg.w == nil || cfg.fem2d == "" {
		fmt.Fprintln(os.Stderr, "benchmark: need -workload (one of the four) and -fem2d")
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt cancels the requests in flight; run then fails and
	// stops the daemon on its way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printResult(cfg, res)
}

// printResult prints every metric by name, value and unit, then the
// result as one JSON object on the last line.
func printResult(cfg *config, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  closed loop, %d connection(s)\n%s\n", cfg.w.name, cfg.seed, cfg.w.conns, res.host)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %-6s %s\n", n, m.Value, m.Unit, m.note)
	}
	fmt.Printf("operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

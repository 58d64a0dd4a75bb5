package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the self-test reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &spec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the driver computes a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// selfRuns is the number of runs per set: the contract's ten.
const selfRuns = 10

// selfTest measures the benchmark's own noise the way the driver judges
// it: every workload as two interleaved sets of selfRuns untraced runs,
// each run a fresh process on its own seed, and for every end-to-end
// metric both medians, the quartile spread of each set as a share of its
// median, and how much worse the second median is than the first.  The
// report goes to NOISE.md beside this program's sources.
func selfTest(cfg *config) error {
	dir := filepath.Dir(cfg.out)
	sp, err := readSpec(filepath.Join(filepath.Dir(dir), "BENCHMARK.json"))
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set]
	values := map[string]map[string]*[2][]float64{}
	seed := 0
	start := time.Now()
	for i := 0; i < selfRuns; i++ {
		for _, w := range sp.Workloads {
			for set := 0; set < 2; set++ {
				seed++
				out, err := exec.Command(self, "-fem2d", cfg.fem2d, "-out", cfg.out, "--workload", w.Name,
					"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0").Output()
				if err != nil {
					return fmt.Errorf("run %d of %s: %w", i, w.Name, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("run %d of %s: %w", i, w.Name, err)
				}
				if !res.Correct {
					return fmt.Errorf("run %d of %s: %d of %d operations failed", i, w.Name, res.Failed, res.Attempted)
				}
				if values[w.Name] == nil {
					values[w.Name] = map[string]*[2][]float64{}
				}
				for name, m := range res.Metrics {
					if values[w.Name][name] == nil {
						values[w.Name][name] = &[2][]float64{}
					}
					values[w.Name][name][set] = append(values[w.Name][name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selftest: round %d %s set %d done (%s elapsed)\n", i+1, w.Name, set+1, time.Since(start).Round(time.Second))
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# The benchmark's own noise\n\n")
	fmt.Fprintf(&b, "Written by `bash benchmark/run.sh -selftest` on %s: every workload as two\n", time.Now().Format("2006-01-02"))
	fmt.Fprintf(&b, "interleaved sets of %d untraced runs of identical code (`--seconds %d`, a fresh process and\n", selfRuns, sp.RunSeconds)
	fmt.Fprintf(&b, "seed per run; %s in all).  Spread is the distance between the first and third\n", time.Since(start).Round(time.Second))
	fmt.Fprintf(&b, "quartile (Python's `statistics.quantiles(v, n=4)`) as a share of the median; \"B worse by\" is how\n")
	fmt.Fprintf(&b, "much worse set B's median reads than set A's (negative: better).  A benchmark is steady when\n")
	fmt.Fprintf(&b, "every spread and every \"B worse by\" stays inside the metric's bound; the aim is a third of it.\n")
	fmt.Fprintf(&b, "`setup_s` is exempt from the spread rule but not from the median rule.\n\n")
	fmt.Fprintf(&b, "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | inside |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	ok := true
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			v := values[w.Name][m.Name]
			if v == nil {
				return fmt.Errorf("%s never reported %s", w.Name, m.Name)
			}
			medA, medB := median(v[0]), median(v[1])
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			spread := func(x []float64) float64 { q1, q3 := quartiles(x); return (q3 - q1) / median(x) }
			sa, sb := spread(v[0]), spread(v[1])
			inside := worse <= m.Bound && (m.Name == "setup_s" || sa <= m.Bound && sb <= m.Bound)
			ok = ok && inside
			fmt.Fprintf(&b, "| %s | %s (%s) | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %v |\n",
				w.Name, m.Name, m.Unit, medA, medB, 100*worse, 100*sa, 100*sb, 100*m.Bound, map[bool]string{true: "yes", false: "**no**"}[inside])
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "NOISE.md"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("some metric left its bound; see %s", filepath.Join(dir, "NOISE.md"))
	}
	return nil
}

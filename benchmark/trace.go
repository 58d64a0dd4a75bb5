package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/command"
	"repro/internal/obs"
)

// span is one traced interval on the client side.  The spans of one unit
// form a tree: the unit, its jobs, and under each job (or, for requests
// outside any job, under the unit) one span per client.Do named by the
// wire verb.  Times are nanoseconds since the benchmark process started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a unit
	Name   string `json:"name"`
	Conn   int    `json:"conn"`
	Unit   int    `json:"unit"`
	Job    int    `json:"job"` // the job's slot in its unit, -1 outside any job
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracedVerbs are the wire verbs the workloads issue; per-verb metrics
// exist for each, and read 0 on a workload that does not use the verb.
var tracedVerbs = []string{"submit", "wait", "solve", "stresses", "material", "generate-grid", "endload", "store", "retrieve"}

// solveBackends are the direct backends the workloads solve with.
var solveBackends = []string{"cholesky", "cholesky-env"}

// daemonStats is the daemon's own view through the stats verb: counters,
// and the count and summed nanoseconds of every latency histogram.
type daemonStats struct {
	counter, count, sumNS map[string]int64
}

func (r *runner) stats(ctx context.Context) (*daemonStats, error) {
	res, err := r.conns[0].cl.Do(ctx, command.Stats{})
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	s := &daemonStats{counter: map[string]int64{}, count: map[string]int64{}, sumNS: map[string]int64{}}
	sr := res.(*command.StatsResult)
	for _, c := range sr.Counters {
		s.counter[c.Name] = c.Value
	}
	for _, h := range sr.Histograms {
		s.count[h.Name], s.sumNS[h.Name] = h.Count, h.SumNS
	}
	return s, nil
}

// since returns what the daemon counted between two stats replies.
func (s *daemonStats) since(before *daemonStats) *daemonStats {
	d := &daemonStats{counter: map[string]int64{}, count: map[string]int64{}, sumNS: map[string]int64{}}
	for k, v := range s.counter {
		d.counter[k] = v - before.counter[k]
	}
	for k, v := range s.count {
		d.count[k], d.sumNS[k] = v-before.count[k], s.sumNS[k]-before.sumNS[k]
	}
	return d
}

// sums adds up the histograms named prefix+suffix for each suffix.
func (s *daemonStats) sums(prefix string, suffixes []string) (count, ns int64) {
	for _, x := range suffixes {
		count += s.count[prefix+x]
		ns += s.sumNS[prefix+x]
	}
	return count, ns
}

// per divides, reading 0 for an empty denominator (a verb the workload
// does not use).
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fileSize(path string) int64 {
	if fi, err := os.Stat(path); err == nil {
		return fi.Size()
	}
	return 0
}

// traced runs the traced phase, shorter than an untraced run, and derives
// the per-layer metrics from the generator's spans and from the daemon's
// own counters read before and after.
func (r *runner) traced(ctx context.Context, res *result, seconds, untracedRate float64) error {
	before, err := r.stats(ctx)
	if err != nil {
		return err
	}
	size0 := fileSize(r.store)
	p, err := r.measure(ctx, seconds, true)
	if err != nil {
		return err
	}
	size1 := fileSize(r.store)
	after, err := r.stats(ctx)
	if err != nil {
		return err
	}
	if err := writeTrace(r.cfg, p.spans); err != nil {
		return err
	}
	d := after.since(before)
	jobs := float64(p.jobCount())
	note := fmt.Sprintf("traced, %d jobs", p.jobCount())
	// The daemon's histograms cover the whole phase, so every traced time
	// is scaled by the phase's median calibration reading.
	cal := p.over(window.calib)
	us := func(ns float64) float64 { return calibrated(ns/1e3, cal) }

	// Client side, per verb and per job.
	byVerb := map[string][]float64{}
	inJob := map[string]bool{} // verbs issued inside jobs
	var jobSpanNS, jobLifeNS float64
	for _, s := range p.spans {
		switch s.Name {
		case "unit":
		case "job":
			jobLifeNS += float64(s.End - s.Start)
		default:
			byVerb[s.Name] = append(byVerb[s.Name], float64(s.End-s.Start))
			if s.Job >= 0 {
				inJob[s.Name] = true
				jobSpanNS += float64(s.End - s.Start)
			}
		}
	}
	var jobServerNS float64
	for _, v := range tracedVerbs {
		ns := byVerb[v]
		var sum float64
		for _, x := range ns {
			sum += x
		}
		srvCount, srvNS := float64(d.count[obs.ServerRequestPrefix+v]), float64(d.sumNS[obs.ServerRequestPrefix+v])
		if inJob[v] {
			jobServerNS += srvNS
		}
		res.set("client.p50_ms."+v, us(median(ns))/1e3, "ms", fmt.Sprintf("traced, %d requests", len(ns)))
		res.set("server.request_mean_us."+v, us(per(srvNS, srvCount)), "us", fmt.Sprintf("daemon histogram, %d requests", int(srvCount)))
		res.set("wire_client.self_us."+v, us(per(sum, float64(len(ns)))-per(srvNS, srvCount)), "us", "client span mean - server.request mean")
	}

	// The solve itself: scheduled jobs are timed by the scheduler
	// (job.latency.solve), and every solve, scheduled or synchronous, by
	// the interpreter per backend (job.latency.solve.<backend>).
	schedCount, schedNS := float64(d.count[obs.JobLatencyPrefix+"solve"]), float64(d.sumNS[obs.JobLatencyPrefix+"solve"])
	bc, bn := d.sums(obs.JobLatencySolvePrefix, solveBackends)
	solveCount, solveNS := float64(bc), float64(bn)
	execNS := solveNS
	serverSelf := per(float64(d.sumNS[obs.ServerRequestPrefix+"solve"]), float64(d.count[obs.ServerRequestPrefix+"solve"])) - per(solveNS, solveCount)
	if schedCount > 0 {
		execNS = schedNS
		_, reqNS := d.sums(obs.ServerRequestPrefix, []string{"submit", "wait"})
		serverSelf = per(float64(reqNS)-schedNS, schedCount)
	}
	res.set("job.exec_mean_us.solve", us(per(schedNS, schedCount)), "us", "scheduler's job.latency.solve; 0 when solves are synchronous")
	res.set("server_job.self_us.solve", us(serverSelf), "us", "server.request time of a solve (submit+wait when scheduled) - its execution")
	for _, b := range solveBackends {
		name := obs.JobLatencySolvePrefix + b
		res.set("job.solve_mean_us."+b, us(per(float64(d.sumNS[name]), float64(d.count[name]))), "us", fmt.Sprintf("%d solves", d.count[name]))
	}
	res.set("job.queue_wait_share", per(float64(d.sumNS[obs.ServerRequestPrefix+"wait"]), jobLifeNS), "ratio", "time wait requests spent blocked in the daemon / client-side job time")
	hits, refactors := float64(d.counter[obs.FactorHits]), float64(d.counter[obs.FactorRefactors])
	res.set("factor.hit_ratio", per(hits, hits+refactors), "ratio", "warm-factor solves / direct solves")
	res.set("factor.refactors_per_job", per(refactors, jobs), "count", note)

	// One stats request and one stats reply fall between the two
	// readings; they are not the workload's frames.
	res.set("server.frames_in_per_job", per(float64(d.counter[obs.ServerFramesIn]-1), jobs), "count", note)
	res.set("server.frames_out_per_job", per(float64(d.counter[obs.ServerFramesOut]-1), jobs), "count", "replies and pushed job events")

	res.set("store.batch_mean_us", us(per(float64(d.sumNS[obs.StoreBatchLatency]), float64(d.count[obs.StoreBatchLatency]))), "us", fmt.Sprintf("%d batches", d.count[obs.StoreBatchLatency]))
	res.set("store.batch_per_job", per(float64(d.count[obs.StoreBatchLatency]), jobs), "count", note)
	res.set("store.get_per_job", per(float64(d.count[obs.StoreGetLatency]), jobs), "count", note)
	ch, cm := float64(d.counter[obs.StoreCacheHits]), float64(d.counter[obs.StoreCacheMisses])
	res.set("store.cache_hit_ratio", per(ch, ch+cm), "ratio", fmt.Sprintf("%d gets", int(ch+cm)))
	res.set("store.file_bytes_per_job", per(float64(size1-size0), jobs), "B", "growth of the store file; 0 on the mem backend")

	// The per-job budget: time on the wire and in the client, time in the
	// server outside execution, and execution, against the client-side
	// life of a job.  With one job in flight the three sum to the job
	// time less the generator's own time between requests.
	res.set("client.job_mean_ms", us(per(jobLifeNS, jobs))/1e3, "ms", note)
	res.set("budget.wire_client_us", us(per(jobSpanNS-jobServerNS, jobs)), "us", "per job: client spans - server.request")
	res.set("budget.server_us", us(per(jobServerNS-execNS, jobs)), "us", "per job: server.request - execution")
	res.set("budget.exec_us", us(per(execNS, jobs)), "us", "per job: execution")
	res.set("budget.closure_pct", 100*per(jobSpanNS, jobLifeNS), "%", "the three budget parts / client-side job time")
	res.set("budget.solve_pct", 100*per(solveNS, jobLifeNS), "%", "fem.Solve time / client-side job time")

	res.set("trace.overhead_pct", 100*per(untracedRate-p.over(window.jobsPerS), untracedRate), "%", "untraced vs traced jobs_per_s in this process")
	return nil
}

// writeTrace writes the spans of the traced phase, ordered by start, to
// <out>/<workload>.trace.json.
func writeTrace(cfg *config, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(filepath.Join(cfg.out, cfg.w.name+".trace.json"))
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.w.name, cfg.seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

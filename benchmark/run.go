package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/command"
)

// config is one benchmark invocation.
type config struct {
	w       *workload
	seed    int64
	seconds float64 // length of a measured phase in windows of about a second
	trace   bool
	fem2d   string  // the pre-built daemon
	out     string  // directory for store files and trace files
	scale   float64 // 1 for a real run; the smoke test shrinks every fixed count by it
}

// scaled shrinks a fixed count for the smoke test, never below 1.
func (c *config) scaled(n int) int {
	return max(1, int(float64(n)*c.scale))
}

// epoch is the zero of every recorded time.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// interval is the client-side life of one job.
type interval struct{ start, end int64 }

// conn is one client connection and what it recorded.
type conn struct {
	id   int
	cl   *client.Client
	next int // index of the next unit to generate

	attempted, failed int
	firstErr          error
	jobs              []interval
	spans             []span // nil unless tracing
	tracing           bool
	lastSpan          int64
}

// spanID returns a span id unique across the (at most two) connections.
func (c *conn) spanID() int64 {
	c.lastSpan++
	return c.lastSpan*2 + int64(c.id)
}

// runUnit issues one unit's requests in order, checks every reply, and
// records the unit's jobs (and, when tracing, a span per request under a
// span per job under a span for the unit).
func (c *conn) runUnit(ctx context.Context, unit int, steps []step) {
	const maxSlots = 8
	var ids, starts, ends [maxSlots]int64
	var unitSpan int64
	var jobSpans [maxSlots]int64
	if c.tracing {
		unitSpan = c.spanID()
	}
	unitStart := now()
	for _, s := range steps {
		cmd := s.cmd
		if _, ok := cmd.(command.Wait); ok {
			cmd = command.Wait{ID: ids[s.slot]}
		}
		t0 := now()
		res, err := c.cl.Do(ctx, cmd)
		t1 := now()
		c.attempted++
		if err == nil {
			err = s.check(res)
		}
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("conn %d unit %d: %w", c.id, unit, err)
			}
		} else if sub, ok := res.(*command.SubmitResult); ok {
			ids[s.slot] = sub.ID
		}
		parent := unitSpan
		if s.slot >= 0 {
			if starts[s.slot] == 0 {
				starts[s.slot] = t0
				if c.tracing {
					jobSpans[s.slot] = c.spanID()
				}
			}
			ends[s.slot] = t1
			parent = jobSpans[s.slot]
		}
		if c.tracing {
			c.spans = append(c.spans, span{ID: c.spanID(), Parent: parent, Name: command.Verb(cmd),
				Conn: c.id, Unit: unit, Job: s.slot, Start: t0, End: t1})
		}
	}
	for k := range starts {
		if starts[k] == 0 {
			continue
		}
		c.jobs = append(c.jobs, interval{starts[k], ends[k]})
		if c.tracing {
			c.spans = append(c.spans, span{ID: jobSpans[k], Parent: unitSpan, Name: "job",
				Conn: c.id, Unit: unit, Job: k, Start: starts[k], End: ends[k]})
		}
	}
	if c.tracing {
		c.spans = append(c.spans, span{ID: unitSpan, Name: "unit", Conn: c.id, Unit: unit, Job: -1,
			Start: unitStart, End: now()})
	}
}

// runner drives one workload against one daemon at a time.
type runner struct {
	cfg   *config
	gen   *generator
	d     *daemon
	store string // the live daemon's store file, "" on the mem backend
	conns []*conn
}

// each runs fn on every connection concurrently, one goroutine per
// connection, and waits for all of them.
func (r *runner) each(fn func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// failure reports the first failed operation on any connection.
func (r *runner) failure() error {
	for _, c := range r.conns {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// setUp is the timed set-up sequence: exec the daemon, dial every
// connection (first Welcome), build the workload's models, solve each
// cold, and run the fixed warm-up.  It returns the time from exec to the
// end of the warm-up.
func (r *runner) setUp(ctx context.Context, prepop string) (time.Duration, error) {
	w := r.cfg.w
	r.store = ""
	if w.fileStore {
		r.store = filepath.Join(r.cfg.out, fmt.Sprintf("store-%d.db", os.Getpid()))
		if err := copyFile(prepop, r.store); err != nil {
			return 0, err
		}
	}
	d, err := startDaemon(r.cfg.fem2d, r.store)
	if err != nil {
		return 0, err
	}
	r.d, r.conns = d, nil
	for i := 0; i < w.conns; i++ {
		cl, err := client.Dial(d.addr, fmt.Sprintf("tenant%d", i))
		if err != nil {
			r.tearDown()
			return 0, fmt.Errorf("dialing fem2d: %w", err)
		}
		r.conns = append(r.conns, &conn{id: i, cl: cl})
	}
	warmup := r.cfg.scaled(w.warmup)
	r.each(func(c *conn) {
		c.runUnit(ctx, -1, w.build(r.gen, c.id))
		for ; c.next < warmup; c.next++ {
			c.runUnit(ctx, c.next, w.unit(r.gen, c.id, c.next))
		}
	})
	took := time.Since(d.started)
	if err := r.failure(); err != nil {
		r.tearDown()
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return took, nil
}

// tearDown closes the connections, drains the daemon and removes its
// store file.
func (r *runner) tearDown() error {
	for _, c := range r.conns {
		c.cl.Close()
	}
	err := r.d.stop()
	if r.store != "" {
		os.Remove(r.store)
	}
	return err
}

// Pre-population of the tenants_mixed store file by a previous daemon
// life: stored models and journal records for the next daemon to open
// and replay.
const (
	prepopModels = 64
	prepopJobs   = 2000
)

func (r *runner) prepopulate(ctx context.Context) (string, error) {
	path := filepath.Join(r.cfg.out, fmt.Sprintf("prepop-%d.db", os.Getpid()))
	os.Remove(path)
	d, err := startDaemon(r.cfg.fem2d, path)
	if err != nil {
		return "", err
	}
	cl, err := client.Dial(d.addr, "previous")
	if err != nil {
		d.kill()
		return "", err
	}
	c := &conn{cl: cl}
	g := r.gen
	name := func(k int) string { return fmt.Sprintf("p%d", k) }
	// The journal records come from solves on the first eight models,
	// eight in flight at a time to keep the previous life short.
	const inFlight = 8
	for k := 0; k < max(inFlight, r.cfg.scaled(prepopModels)); k++ {
		c.runUnit(ctx, -1, append(g.define(name(k), tenantGrid, 0, g.fy[0], -1),
			step{cmd: command.Store{Model: name(k)}, slot: -1}))
	}
	var cold, submits, waits []step
	for k := 0; k < inFlight; k++ {
		cold = append(cold, g.solve(name(k), tenantGrid, 0, g.fy[0], -1, true))
		s, w := g.submitWait(name(k), tenantGrid, 0, g.fy[0], k)
		submits, waits = append(submits, s), append(waits, w)
	}
	c.runUnit(ctx, -1, cold)
	for i := 0; i < r.cfg.scaled(prepopJobs); i += inFlight {
		c.runUnit(ctx, -1, append(submits[:inFlight:inFlight], waits...))
	}
	cl.Close()
	if err := d.stop(); err != nil {
		return "", err
	}
	if c.firstErr != nil {
		return "", fmt.Errorf("pre-populating the store: %w", c.firstErr)
	}
	return path, nil
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}

// window is one stretch of the measured phase: a fixed number of units
// per connection, about one second.  Between windows every connection
// pauses while the harness reads the daemon's /proc entries and the host
// calibration loop, so each window has its own reading of how fast the
// host was.
type window struct {
	wallNS  int64
	jobs    []interval
	cpu     time.Duration // the daemon's utime+stime over the window
	rssKB   int64         // the daemon's VmRSS at the end of the window
	calibMS float64       // mean of the calibration readings before and after
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	windows []window
	spans   []span
}

// measure runs seconds windows of closed-loop traffic.
//
// The host-drift guard is the scaling of every window by its own
// calibration readings (see calibrated): this host changes speed by up
// to 1.7x for minutes at a time, so discarding and repeating disturbed
// phases would discard most of them and cannot fit the driver's time
// cap.  Scaling reads only the calibration loop, never a measured
// metric, and the median over windows sheds a window the host disturbed
// in a way the loop did not see.
func (r *runner) measure(ctx context.Context, seconds float64, traced bool) (*phase, error) {
	w := r.cfg.w
	units := (r.cfg.scaled(w.rate) + w.jobsPerUnit - 1) / w.jobsPerUnit
	p := &phase{}
	prevCalib := calibrate(windowReadings)
	prev, err := r.d.sample()
	if err != nil {
		return nil, fmt.Errorf("sampling the daemon: %w", err)
	}
	for i := 0; i < max(1, int(seconds+0.5)); i++ {
		start := now()
		r.each(func(c *conn) {
			c.jobs, c.tracing = c.jobs[:0], traced
			for n := 0; n < units; n++ {
				c.runUnit(ctx, c.next, w.unit(r.gen, c.id, c.next))
				c.next++
			}
			c.tracing = false
		})
		win := window{wallNS: now() - start}
		cur, err := r.d.sample()
		if err != nil {
			return nil, fmt.Errorf("sampling the daemon: %w", err)
		}
		calib := calibrate(windowReadings)
		win.cpu, win.rssKB = time.Duration(cur.cpuTicks-prev.cpuTicks)*clockTick, cur.rssKB
		win.calibMS = (prevCalib + calib) / 2
		for _, c := range r.conns {
			win.jobs = append(win.jobs, c.jobs...)
			p.spans = append(p.spans, c.spans...)
			c.spans = c.spans[:0]
		}
		p.windows = append(p.windows, win)
		prev, prevCalib = cur, calib
		if err := r.failure(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// nominalCalibMS is the calibration loop's time on this host when it is
// quiet.  Every reported time is wall time scaled by nominalCalibMS over
// the calibration reading taken beside it: times as they would read on
// the quiet host.
const nominalCalibMS = 7.25

func calibrated(ms, calibMS float64) float64 { return ms * nominalCalibMS / calibMS }

// values returns one per-window value for every window, and over their
// median.
func (p *phase) values(fn func(w window) float64) []float64 {
	v := make([]float64, len(p.windows))
	for i, w := range p.windows {
		v[i] = fn(w)
	}
	return v
}

func (p *phase) over(fn func(w window) float64) float64 { return median(p.values(fn)) }

func (w window) jobMS(q float64) float64 {
	d := make([]float64, len(w.jobs))
	for i, j := range w.jobs {
		d[i] = float64(j.end-j.start) / 1e6
	}
	sort.Float64s(d)
	return calibrated(quantile(d, q), w.calibMS)
}

func (w window) calib() float64 { return w.calibMS }

func (w window) jobsPerS() float64 {
	return float64(len(w.jobs)) / calibrated(float64(w.wallNS)/1e9, w.calibMS)
}

func (w window) cpuMSPerJob() float64 {
	return calibrated(float64(w.cpu)/float64(time.Millisecond), w.calibMS) / float64(len(w.jobs))
}

// peakRSSMB is the highest VmRSS read at the end of any window.  The
// resident set of a Go process saws between collections, so the median
// reading swings by a tenth between identical runs; the peak, which is
// what the daemon needs, repeats within 2%.  It is not VmHWM, which also
// covers set-up.
func (p *phase) peakRSSMB() float64 {
	var kb int64
	for _, w := range p.windows {
		kb = max(kb, w.rssKB)
	}
	return float64(kb) / 1024
}

// jobCount is the number of jobs the phase completed.
func (p *phase) jobCount() (n int) {
	for _, w := range p.windows {
		n += len(w.jobs)
	}
	return n
}

// quantile reads the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// result is what one invocation reports; its JSON form is the last line
// of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// host describes the host during the measured phase, for people.
	host string
}

func (res *result) set(name string, v float64, unit, note string) {
	res.Metrics[name] = metric{Value: v, Unit: unit, note: note}
}

// run executes one invocation: set-up repetitions, the measured phase,
// and with trace on the traced phase and the layer probes.
func run(ctx context.Context, cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, gen: newGenerator(cfg.w, cfg.seed)}
	res := &result{Metrics: map[string]metric{}}

	prepop := ""
	if cfg.w.fileStore {
		var err error
		if prepop, err = r.prepopulate(ctx); err != nil {
			return nil, err
		}
		defer os.Remove(prepop)
	}

	// Set-up is repeated against fresh daemons because a single ~1 s
	// reading swings by a quarter on this host; the last daemon carries
	// on into the measured phase.
	reps := 5
	if cfg.trace {
		reps = 3
	}
	if cfg.scale < 1 {
		reps = 2
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
		before := calibrate(otherReadings)
		took, err := r.setUp(ctx, prepop)
		if err != nil {
			return nil, err
		}
		setups = append(setups, calibrated(took.Seconds(), (before+calibrate(otherReadings))/2))
	}
	err := r.report(ctx, res, setups)
	if terr := r.tearDown(); err == nil {
		err = terr
	}
	for _, c := range r.conns {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	res.Correct = res.Failed == 0
	if err == nil && cfg.trace {
		err = probeLayers(cfg, res)
	}
	return res, err
}

// report measures on the live daemon and fills in the metrics.
func (r *runner) report(ctx context.Context, res *result, setups []float64) error {
	cfg := r.cfg
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // the other half is the traced phase
	}
	p, err := r.measure(ctx, seconds, false)
	if err != nil {
		return err
	}
	over := fmt.Sprintf("median of %d windows, %d jobs", len(p.windows), p.jobCount())
	calib := p.over(window.calib)
	res.host = fmt.Sprintf("host calibration %.2f ms (quiet host %g ms): times are wall time x %.3f", calib, nominalCalibMS, nominalCalibMS/calib)
	if !cfg.trace {
		res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups against fresh daemons", len(setups)))
		res.set("solve_p50_ms", p.over(func(w window) float64 { return w.jobMS(0.50) }), "ms", over)
		res.set("jobs_per_s", p.over(window.jobsPerS), "1/s", over)
		res.set("daemon_cpu_ms_per_job", p.over(window.cpuMSPerJob), "ms", over)
		res.set("daemon_rss_mb", p.peakRSSMB(), "MB", fmt.Sprintf("highest of %d VmRSS readings", len(p.windows)))
		return nil
	}
	res.set("setup_min_s", slices.Min(setups), "s", fmt.Sprintf("fastest of %d set-ups", len(setups)))
	res.set("client.job_p90_ms", p.over(func(w window) float64 { return w.jobMS(0.90) }), "ms", "untraced, "+over)
	res.set("client.job_p99_ms", p.over(func(w window) float64 { return w.jobMS(0.99) }), "ms", "untraced, "+over)
	q1, q3 := quartiles(p.values(window.calib))
	res.set("host.calib_ms", calib, "ms", fmt.Sprintf("quiet host: %g ms", nominalCalibMS))
	res.set("host.calib_spread_pct", 100*per(q3-q1, calib), "%", "quartile spread of the windows' calibration readings")
	return r.traced(ctx, res, seconds, p.over(window.jobsPerS))
}

package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// EmitterOpts parameterizes an Emitter.
type EmitterOpts struct {
	// Interval is the tick cadence — the -metrics flag's value.
	// Ignored when Ticks is set.
	Interval time.Duration
	// W receives one JSON line per tick.  Each line is a single Write
	// call, so concurrent emitters appending to one O_APPEND file do
	// not interleave mid-line.
	W io.Writer
	// Now replaces time.Now for tests; nil means time.Now.
	Now func() time.Time
	// Ticks replaces the interval ticker for tests: the emitter emits
	// one line per received tick and never starts a timer.  Nil means a
	// real time.Ticker at Interval.
	Ticks <-chan time.Time
}

// Emitter periodically writes one machine-readable metrics line —
// counters, gauges, histograms, and the derived headline rates — in
// the perf-stat -I / pmu2metrics style: a process that should be
// watched is a process that prints what it is doing, on an interval,
// in a format a pipeline can diff.
//
//	{"ts":"…","uptime_s":12,"jobs_per_sec":5240.1,…,"counters":{…},…}
//
// Write failures are ignored: the emitter is diagnostics, and a full
// disk must never take the service down with it.
type Emitter struct {
	reg  *Registry
	opts EmitterOpts

	mu      sync.Mutex
	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}

	lines atomic.Int64

	// prevDone and prevTime carry the previous tick's job.done count
	// and timestamp, the numerator and denominator of jobs_per_sec.
	// Only the run goroutine touches them.
	prevDone int64
	prevTime time.Time
}

// NewEmitter builds an emitter over a registry.  Call Start to begin
// ticking and Stop to flush out; both are idempotent enough for defer.
func NewEmitter(reg *Registry, opts EmitterOpts) *Emitter {
	return &Emitter{
		reg: reg, opts: opts,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

func (e *Emitter) now() time.Time {
	if e.opts.Now != nil {
		return e.opts.Now()
	}
	return time.Now()
}

// Start launches the emit loop in its own goroutine.
func (e *Emitter) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started || e.stopped {
		return
	}
	e.started = true
	// Seed the rate baseline before the goroutine exists, so jobs
	// completed after Start returns are always counted in a tick.  A
	// snapshot reads job.done without registering it in a registry that
	// has none (a client's).
	e.prevTime = e.now()
	e.prevDone = e.reg.Snapshot().Counter(JobDone)
	go e.run()
}

// Stop ends the loop, which writes one closing line as it exits, so what
// happened after the last tick is reported too, and waits for it; no
// line is written after Stop returns.  Safe to call without Start (it
// then writes nothing), and more than once.
func (e *Emitter) Stop() {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		close(e.stop)
	}
	started := e.started
	e.mu.Unlock()
	if started {
		<-e.done
	}
}

// Lines reports how many metric lines have been written — the fake
// clock tests count ticks through it.
func (e *Emitter) Lines() int64 { return e.lines.Load() }

func (e *Emitter) run() {
	defer close(e.done)
	ticks := e.opts.Ticks
	if ticks == nil {
		t := time.NewTicker(e.opts.Interval)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-e.stop:
			e.emit(time.Time{})
			return
		case tk := <-ticks:
			e.emit(tk)
		}
	}
}

// emitLine is the wire shape of one tick.  Maps marshal with sorted
// keys, so lines are deterministic for identical state.
type emitLine struct {
	TS            string `json:"ts"`
	UptimeSeconds int64  `json:"uptime_s"`
	// JobsPerSec is the job completion rate over the last tick; the
	// hit rate is cumulative since start.
	JobsPerSec    float64                  `json:"jobs_per_sec"`
	FactorHitRate float64                  `json:"factor_hit_rate"`
	Counters      map[string]int64         `json:"counters,omitempty"`
	Gauges        map[string]int64         `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnap `json:"hist,omitempty"`
}

// emit writes one line.  at is the tick time (zero for the closing line
// and with a fake ticker that sends zero values — the clock hook fills
// in).
func (e *Emitter) emit(at time.Time) {
	if at.IsZero() {
		at = e.now()
	}
	snap := e.reg.Snapshot()

	line := emitLine{
		TS:            at.UTC().Format(time.RFC3339Nano),
		UptimeSeconds: snap.UptimeSeconds,
		FactorHitRate: rate(snap.Counter(FactorHits), snap.Counter(FactorMisses)),
	}
	done := snap.Counter(JobDone)
	if dt := at.Sub(e.prevTime).Seconds(); dt > 0 && done >= e.prevDone {
		line.JobsPerSec = float64(done-e.prevDone) / dt
	}
	e.prevDone, e.prevTime = done, at

	if len(snap.Counters) > 0 {
		line.Counters = make(map[string]int64, len(snap.Counters))
		for _, m := range snap.Counters {
			line.Counters[m.Name] = m.Value
		}
	}
	if len(snap.Gauges) > 0 {
		line.Gauges = make(map[string]int64, len(snap.Gauges))
		for _, m := range snap.Gauges {
			line.Gauges[m.Name] = m.Value
		}
	}
	if len(snap.Histograms) > 0 {
		line.Histograms = make(map[string]HistogramSnap, len(snap.Histograms))
		for _, h := range snap.Histograms {
			name := h.Name
			h.Name = "" // the map key carries it
			line.Histograms[name] = h
		}
	}

	data, err := json.Marshal(line)
	if err != nil {
		return
	}
	data = append(data, '\n')
	if _, err := e.opts.W.Write(data); err != nil {
		return
	}
	e.lines.Add(1)
}

// rate returns hits/(hits+misses), zero when there were none.
func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// StartEmitter is the -metrics flag of fem2 and fem2d: it starts an
// emitter over reg that writes a line per interval to the file at path
// (created if needed, appended to), or to stderr when path is empty.  The
// returned stop flushes the emitter out and closes the file.
func StartEmitter(reg *Registry, interval time.Duration, path string) (stop func(), err error) {
	w := io.Writer(os.Stderr)
	var f *os.File
	if path != "" {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w = f
	}
	em := NewEmitter(reg, EmitterOpts{Interval: interval, W: w})
	em.Start()
	return func() {
		em.Stop()
		if f != nil {
			f.Close()
		}
	}, nil
}

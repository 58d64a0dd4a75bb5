package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	fem2 "repro"
	"repro/internal/command"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/store"
	"repro/internal/wire"
)

// Layer probes call each layer's public functions in-process, on one
// goroutine, with the workloads' own models and messages: the small
// plate of iterate_small, the large plate of the *_large pair, the
// tenant plate, a submit-solve exchange, and the model and journal
// values the daemon really stores.  Each probe runs a fixed number of
// calls in probeBatches batches and reports the median batch.
const probeBatches = 21

type probes struct {
	cfg *config
	res *result
	err error // the first probe failure; later probes are skipped
	// calibMS is the host calibration reading taken before the current
	// group of probes; their times are scaled by it.
	calibMS float64

	// Values the auvm probes read back from a live system for the store
	// probes to replay.
	modelValue, journalValue []byte
}

// time reports the median over the batches of the time per call of fn.
// With before non-nil, before runs untimed ahead of every call.
func (ps *probes) time(name, unit string, reps int, before, fn func() error) float64 {
	if ps.err != nil {
		return 0
	}
	reps = ps.cfg.scaled(reps)
	batches := probeBatches
	if ps.cfg.scale < 1 {
		batches = 3
	}
	perCall := make([]float64, batches)
	for b := range perCall {
		var spent time.Duration
		start := time.Now()
		for i := 0; i < reps; i++ {
			if before != nil {
				if ps.err = before(); ps.err != nil {
					return 0
				}
				start = time.Now()
			}
			if ps.err = fn(); ps.err != nil {
				ps.err = fmt.Errorf("probe %s: %w", name, ps.err)
				return 0
			}
			if before != nil {
				spent += time.Since(start)
			}
		}
		if before == nil {
			spent = time.Since(start)
		}
		perCall[b] = float64(spent) / float64(reps)
	}
	sort.Float64s(perCall)
	ns := calibrated(perCall[batches/2], ps.calibMS)
	div := map[string]float64{"us": 1e3, "ms": 1e6}[unit]
	ps.res.set(name, ns/div, unit, fmt.Sprintf("probe: median of %d batches of %d calls", batches, reps))
	return ns
}

func (ps *probes) exact(name string, v float64, unit string) {
	ps.res.set(name, v, unit, "probe: exact")
}

// try runs one set-up action of a probe unless a probe already failed.
func (ps *probes) try(fn func() error) {
	if ps.err == nil {
		ps.err = fn()
	}
}

func probeLayers(cfg *config, res *result) error {
	ps := &probes{cfg: cfg, res: res}
	for _, group := range []func(){ps.codec, ps.service, ps.interpreter, ps.kernels, ps.storage} {
		ps.calibMS = calibrate(otherReadings)
		group()
	}
	return ps.err
}

var (
	probeSolve  = command.Solve{Model: "s", Set: loadSet}
	probeSubmit = command.Submit{Cmd: probeSolve}
)

// session builds a system holding the small plate "s", the large plate
// "l" and the tenant plate "t", each loaded and solved once.
func (ps *probes) session(opts ...fem2.Option) (*fem2.System, *fem2.Session) {
	if ps.err != nil {
		return nil, nil
	}
	sys, err := fem2.New(opts...)
	if err != nil {
		ps.err = err
		return nil, nil
	}
	sess := sys.Session("probe")
	for name, gr := range map[string]grid{"s": smallGrid, "l": largeGrid, "t": tenantGrid} {
		for _, cmd := range []command.Command{
			command.GenerateGrid{Name: name, NX: gr.nx, NY: gr.ny, W: float64(gr.nx), H: float64(gr.ny), ClampLeft: true},
			command.EndLoad{Model: name, Set: loadSet, FY: -1000},
			command.Solve{Model: name, Set: loadSet, Method: gr.method},
		} {
			ps.try(func() error { _, err := sess.Do(context.Background(), cmd); return err })
		}
	}
	return sys, sess
}

// codec probes wire and command on one submit-solve exchange.
func (ps *probes) codec() {
	var cmdData, subData, solveData []byte
	solveRes := &command.SolveResult{Model: "s", Set: loadSet, Backend: "cholesky", Flops: 123456,
		MaxDisp: 0.012345678901234567, MaxDOF: 125}
	ps.try(func() (err error) { cmdData, err = command.MarshalCommand(probeSubmit); return })
	ps.try(func() (err error) {
		subData, err = command.MarshalResult(&command.SubmitResult{ID: 4242, State: command.JobQueued, Cmd: probeSolve.String()})
		return
	})
	ps.try(func() (err error) { solveData, err = command.MarshalResult(solveRes); return })
	req, resp := &wire.Request{ID: 7, Command: cmdData}, &wire.Response{ID: 7, Result: subData}
	var buf bytes.Buffer
	ps.time("wire.frame_rt_us", "us", 2000, nil, func() error {
		buf.Reset()
		if err := wire.EncodeRequest(&buf, req); err != nil {
			return err
		}
		if _, err := wire.DecodeRequest(&buf); err != nil {
			return err
		}
		if err := wire.EncodeResponse(&buf, resp); err != nil {
			return err
		}
		_, err := wire.DecodeResponse(&buf)
		return err
	})
	buf.Reset()
	ps.try(func() error { return wire.EncodeRequest(&buf, req) })
	ps.exact("wire.submit_req_bytes", float64(buf.Len()), "B")
	buf.Reset()
	ps.try(func() error { return wire.EncodeResponse(&buf, &wire.Response{ID: 7, Result: solveData}) })
	ps.exact("wire.solve_resp_bytes", float64(buf.Len()), "B")

	ps.time("command.marshal_cmd_us", "us", 5000, nil, func() error { _, err := command.MarshalCommand(probeSubmit); return err })
	ps.time("command.unmarshal_cmd_us", "us", 5000, nil, func() error { _, err := command.UnmarshalCommand(cmdData); return err })
	ps.time("command.marshal_result_us", "us", 5000, nil, func() error { _, err := command.MarshalResult(solveRes); return err })
	ps.time("command.unmarshal_result_us", "us", 5000, nil, func() error { _, err := command.UnmarshalResult(solveData); return err })
	line := probeSubmit.String()
	ps.time("command.parse_us", "us", 5000, nil, func() error { _, err := command.Parse(line); return err })
}

// service probes the request floor (a loopback ping against an
// in-process server) and the scheduler with its journal.
func (ps *probes) service() {
	ctx := context.Background()
	sys, sess := ps.session()
	if ps.err != nil {
		return
	}
	srv := fem2.NewServer(sys, fem2.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		ps.err = err
		return
	}
	cl, err := fem2.Dial(addr.String(), "probe")
	if err != nil {
		ps.err = err
		return
	}
	ps.time("server.ping_rt_us", "us", 500, nil, func() error { _, err := cl.Do(ctx, command.Ping{}); return err })
	cl.Close()

	submitWait := func(sys *fem2.System, sess *fem2.Session) func() error {
		return func() error {
			id, err := sess.SubmitAsync(ctx, probeSolve)
			if err != nil {
				return err
			}
			_, err = sys.Jobs.Wait(ctx, id)
			return err
		}
	}
	ps.time("job.submit_wait_small_us", "us", 500, nil, submitWait(sys, sess))
	ps.try(func() error { return srv.Shutdown(ctx) }) // closes sys too

	path := filepath.Join(ps.cfg.out, fmt.Sprintf("probe-journal-%d.db", os.Getpid()))
	defer os.Remove(path)
	fsys, fsess := ps.session(fem2.WithStore(fem2.StoreConfig{Backend: fem2.StoreFile, Path: path}))
	if ps.err != nil {
		return
	}
	ps.time("job.submit_wait_small_file_us", "us", 500, nil, submitWait(fsys, fsess))
	fsys.Close()
}

// interpreter probes auvm.Session.Do with no wire and no scheduler in
// the way, then reads back a stored model and a journal record.
func (ps *probes) interpreter() {
	ctx := context.Background()
	sys, sess := ps.session()
	if ps.err != nil {
		return
	}
	defer sys.Close()
	do := func(cmd command.Command) func() error {
		return func() error { _, err := sess.Do(ctx, cmd); return err }
	}
	large := command.Solve{Model: "l", Set: loadSet, Method: largeGrid.method}
	ps.time("auvm.solve_small_us", "us", 500, nil, do(probeSolve))
	ps.time("auvm.solve_large_warm_ms", "ms", 3, nil, do(large))
	ps.time("auvm.stresses_large_ms", "ms", 10, nil, do(command.Stresses{Model: "l"}))
	gen := command.GenerateGrid{Name: "l", NX: largeGrid.nx, NY: largeGrid.ny, W: float64(largeGrid.nx), H: float64(largeGrid.ny), ClampLeft: true}
	ps.time("auvm.generate_large_ms", "ms", 5, nil, do(gen))
	// Cold: the plate is regenerated under a different modulus before
	// every solve, as refactor_large does, and only the solve is timed.
	n := 0
	ps.time("auvm.solve_large_cold_ms", "ms", 2, func() error {
		n++
		mat := fem.Steel()
		mat.E *= 1 + 0.01*float64(n%refactorVariants)
		for _, cmd := range []command.Command{command.SetMaterial{E: mat.E, Nu: mat.Nu, T: mat.T, A: mat.A},
			gen, command.EndLoad{Model: "l", Set: loadSet, FY: -1000}} {
			if _, err := sess.Do(ctx, cmd); err != nil {
				return err
			}
		}
		return nil
	}, do(large))
	ps.time("auvm.store_model_us", "us", 100, nil, do(command.Store{Model: "t"}))
	ps.time("auvm.retrieve_model_us", "us", 100, nil, do(command.Retrieve{Name: "t"}))

	ps.try(func() (err error) { ps.modelValue, err = sys.Store.Get(store.ModelKey("t")); return })
	ps.try(func() error {
		id, err := sess.SubmitAsync(ctx, probeSolve)
		if err != nil {
			return err
		}
		if _, err := sys.Jobs.Wait(ctx, id); err != nil {
			return err
		}
		ps.journalValue, err = sys.Store.Get(store.JobKey(int64(id)))
		return err
	})
}

// kernels probes fem and linalg on the large plate.
func (ps *probes) kernels() {
	o := largeGrid.opts(fem.Steel())
	var (
		m    *fem.Model
		ws   *fem.Workspace
		asm  *fem.Assembled
		sol  *fem.Solution
		plan *linalg.DirectPlan
		rhs  linalg.Vector
	)
	ps.time("fem.rectgrid_large_ms", "ms", 5, nil, func() (err error) { m, err = fem.RectGrid("l", o); return })
	ps.time("fem.assemble_large_ms", "ms", 3, nil, func() (err error) { asm, err = fem.Assemble(m); return })
	ps.try(func() (err error) { ws, err = fem.NewWorkspace(m); return })
	ps.time("fem.assemble_reuse_large_ms", "ms", 3, nil, func() (err error) { asm, err = ws.Assemble(); return })
	ls := fem.EndLoad(loadSet, o, 0, -1000)
	ps.try(func() (err error) {
		sol, err = fem.Solve(context.Background(), m, ls, fem.SolveOpts{Backend: string(largeGrid.method)})
		return
	})
	ps.time("fem.stresses_large_ms", "ms", 10, nil, func() error { _, err := fem.Stresses(m, sol); return err })
	if ps.err != nil {
		return
	}
	ps.exact("fem.assemble_flops", float64(asm.Stats.Flops), "flop")

	popts, _ := linalg.PlanOptsFor(string(largeGrid.method))
	ps.time("linalg.plan_large_ms", "ms", 3, nil, func() (err error) { plan, err = linalg.NewDirectPlan(asm.K, popts); return })
	refactorNS := ps.time("linalg.refactor_large_ms", "ms", 3, nil, func() error { return plan.Refactor(asm.K, nil) })
	ps.try(func() (err error) { rhs, err = m.RHS(ls, asm.Index, len(asm.Free)); return })
	if ps.err != nil {
		return
	}
	x := linalg.NewVector(len(rhs))
	ps.time("linalg.solveinto_large_us", "us", 50, nil, func() error { _, err := plan.SolveInto(rhs, x, nil); return err })
	var refactor, solve linalg.Stats
	ps.try(func() error { return plan.Refactor(asm.K, &refactor) })
	ps.try(func() error { _, err := plan.SolveInto(rhs, x, &solve); return err })
	if ps.err != nil {
		return
	}
	ps.exact("linalg.profile_nnz", float64(plan.ProfileNNZ()), "count")
	ps.exact("linalg.refactor_flops", float64(refactor.Flops), "flop")
	ps.exact("linalg.solve_flops", float64(solve.Flops), "flop")
	ps.res.set("linalg.refactor_mflops", float64(refactor.Flops)/(refactorNS/1e3), "Mflop/s", "linalg.refactor_flops / linalg.refactor_large_ms")
}

// storage probes the store backends with the daemon's own values: the
// tenant plate's stored model and a terminal journal record.
func (ps *probes) storage() {
	if ps.err != nil {
		return
	}
	key := func(i int) string { return store.JobKey(int64(i % 4096)) }
	i := 0
	mem := store.NewMemStore()
	for k := 0; k < 4096; k++ {
		ps.try(func() error { return mem.Put(key(k), ps.journalValue) })
	}
	ps.time("store.mem_put_us", "us", 2000, nil, func() error { i++; return mem.Put(key(i), ps.journalValue) })
	cached := store.NewCached(mem, 0)
	ps.time("store.cached_get_hit_us", "us", 2000, nil, func() error { i++; _, err := cached.Get(key(i)); return err })

	// One file laid out like the one tenants_mixed pre-populates: stored
	// models, and journal records each written at submit and overwritten
	// at the terminal transition.
	path := filepath.Join(ps.cfg.out, fmt.Sprintf("probe-store-%d.db", os.Getpid()))
	os.Remove(path)
	defer os.Remove(path)
	open := func() (*store.FileStore, error) {
		// No compaction at open, so every open replays the same bytes.
		return store.OpenFileStoreWith(path, store.FileOpts{CompactAt: -1})
	}
	var fs *store.FileStore
	var user int64
	ps.try(func() (err error) { fs, err = open(); return })
	put := func(k string, v []byte) func() error {
		return func() error { user += int64(len(k) + len(v)); return fs.Put(k, v) }
	}
	for k := 0; k < prepopModels; k++ {
		ps.try(put(store.ModelKey(fmt.Sprintf("p%d", k)), ps.modelValue))
	}
	for k := 0; k < 2*prepopJobs; k++ {
		ps.try(put(store.JobKey(int64(k/2)), ps.journalValue))
	}
	ps.try(func() error { return fs.Close() })
	ps.exact("store.write_amp", per(float64(fileSize(path)), float64(user)), "ratio")
	ps.time("store.file_open_ms", "ms", 2, nil, func() error {
		s, err := open()
		if err != nil {
			return err
		}
		return s.Close()
	})

	ps.try(func() (err error) { fs, err = open(); return })
	if ps.err != nil {
		return
	}
	defer fs.Close()
	ps.time("store.file_put_us", "us", 500, nil, func() error { i++; return fs.Put(key(i), ps.journalValue) })
	ps.time("store.file_batch3_us", "us", 500, nil, func() error {
		i += 3
		return fs.Batch([]store.Op{store.Put(key(i), ps.journalValue), store.Put(key(i+1), ps.journalValue), store.Put(key(i+2), ps.journalValue)})
	})
	ps.time("store.file_get_miss_us", "us", 2000, nil, func() error { i++; _, err := fs.Get(key(i % prepopJobs)); return err })
}

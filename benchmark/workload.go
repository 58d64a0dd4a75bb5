package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/fem"
)

// A workload is a closed-loop traffic mix against one fem2d: every
// connection issues its next request only after the previous reply,
// because FEM-2's users are engineers at a workstation who wait for each
// result.  All requests come from a generator that is a pure function of
// (seed, connection, unit index), so the daemon only ever sees generated
// commands and the same seed replays the same stream.
type workload struct {
	name string
	why  string
	// conns is the number of client connections (tenants); never more
	// than the host's two cores.
	conns int
	// fileStore runs the daemon on -store file (default flush policy, no
	// -store-sync) over a file a previous daemon life pre-populated.
	fileStore bool
	// warmup is the number of units each connection runs in set-up after
	// the first cold solve; it also sizes one set-up repetition to about
	// a second.
	warmup int
	// jobsPerUnit is how many jobs one unit completes.
	jobsPerUnit int
	// rate is the fixed number of jobs each connection runs per measured
	// window, sized so that a window lasts about a second in the host's
	// usual state (0.8 s when it is quiet).  Phases are fixed counts, never fixed durations: the daemon's
	// state (journal, retention, caches) then depends on the seed and
	// --seconds alone, not on how fast the host happened to be.
	rate int
	// build generates a connection's set-up commands and unit the
	// commands of its i-th unit.
	build func(g *generator, conn int) []step
	unit  func(g *generator, conn, i int) []step
}

// step is one request of a unit plus what its reply must be.
type step struct {
	cmd command.Command
	// slot is the job (0..jobsPerUnit-1) this request belongs to; -1 for
	// requests outside any job.  A job lasts from the start of its first
	// request to the end of its last.  A Wait takes its id from the
	// Submit of the same slot.
	slot int
	// ref is the in-process reference the reply is checked against.
	ref *modelRef
	// refactored is the Refactored flag a solve reply must carry.
	refactored bool
}

// modelRef holds reference results for one generated model and load set,
// computed in-process with fem.Solve and fem.Stresses.
type modelRef struct {
	nodes, elements, loadEntries int
	maxDisp                      float64
	maxDOF                       int
	maxVonMises                  float64
	maxElem                      int
}

// grid describes one generated cantilever plate.
type grid struct {
	nx, ny int
	method command.Method
}

var (
	smallGrid  = grid{nx: 8, ny: 6}                                      // 126 dof
	tenantGrid = grid{nx: 12, ny: 8}                                     // 234 dof
	largeGrid  = grid{nx: 40, ny: 24, method: command.MethodCholeskyEnv} // 2050 dof, 1920 CST
)

const loadSet = "tip"

// refactorVariants is how many distinct moduli refactor_large cycles
// through: consecutive jobs always differ, so every solve refactors,
// and each variant's reference is computed once.
const refactorVariants = 8

// generator derives every command and every reference from the seed.
type generator struct {
	// mats are the materials in use: one for most workloads, a cycle of
	// refactorVariants for refactor_large.
	mats []fem.Material
	// fy is the tip load per model index.
	fy   []float64
	refs map[refKey]*modelRef
}

// refKey names one generated model and load: grid, material variant,
// tip load.
type refKey struct {
	gr grid
	k  int
	fy float64
}

func newGenerator(w *workload, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{refs: map[refKey]*modelRef{}}
	base := fem.Steel()
	base.E *= 1 + 0.05*rng.Float64()
	for k := 0; k < refactorVariants; k++ {
		m := base
		m.E *= 1 + 0.01*float64(k)
		g.mats = append(g.mats, m)
	}
	for k := 0; k < 8; k++ {
		g.fy = append(g.fy, -(500 + 1000*rng.Float64()))
	}
	// Solve every reference now, before anything is timed and before the
	// connections' goroutines share the generator: one pass over each
	// connection's set-up and a full cycle of its units touches them all.
	for conn := 0; conn < w.conns; conn++ {
		w.build(g, conn)
		for i := 0; i < refactorVariants; i++ {
			w.unit(g, conn, i)
		}
	}
	return g
}

func (gr grid) opts(mat fem.Material) fem.RectGridOpts {
	return fem.RectGridOpts{NX: gr.nx, NY: gr.ny, W: float64(gr.nx), H: float64(gr.ny), Mat: mat, ClampLeft: true}
}

// ref returns the reference for a grid under material variant k and tip
// load fy, solving it in-process on first use (newGenerator makes every
// first use happen up front).
func (g *generator) ref(gr grid, k int, fy float64) *modelRef {
	key := refKey{gr, k, fy}
	if r, ok := g.refs[key]; ok {
		return r
	}
	o := gr.opts(g.mats[k])
	m, err := fem.RectGrid("ref", o)
	if err != nil {
		panic(err) // the grids are fixed and valid
	}
	ls := fem.EndLoad(loadSet, o, 0, fy)
	sol, err := fem.Solve(context.Background(), m, ls, fem.SolveOpts{Backend: string(gr.method)})
	if err != nil {
		panic(err)
	}
	st, err := fem.Stresses(m, sol)
	if err != nil {
		panic(err)
	}
	r := &modelRef{nodes: len(m.Nodes), elements: len(m.Elements), loadEntries: len(ls.Entries)}
	r.maxDOF, r.maxDisp = auvm.MaxDisplacement(sol)
	r.maxElem, r.maxVonMises = auvm.MaxVonMises(st)
	g.refs[key] = r
	return r
}

// define returns the requests that build one model: material, generate
// grid, end load.
func (g *generator) define(name string, gr grid, k int, fy float64, slot int) []step {
	mat, ref := g.mats[k], g.ref(gr, k, fy)
	return []step{
		{cmd: command.SetMaterial{E: mat.E, Nu: mat.Nu, T: mat.T, A: mat.A}, slot: slot},
		{cmd: command.GenerateGrid{Name: name, NX: gr.nx, NY: gr.ny, W: float64(gr.nx), H: float64(gr.ny), ClampLeft: true}, slot: slot, ref: ref},
		{cmd: command.EndLoad{Model: name, Set: loadSet, FY: fy}, slot: slot, ref: ref},
	}
}

func (g *generator) solve(name string, gr grid, k int, fy float64, slot int, refactored bool) step {
	return step{cmd: command.Solve{Model: name, Set: loadSet, Method: gr.method},
		slot: slot, ref: g.ref(gr, k, fy), refactored: refactored}
}

// submitWait is one asynchronous job: submit the solve, then wait for it.
func (g *generator) submitWait(name string, gr grid, k int, fy float64, slot int) (submit, wait step) {
	s := g.solve(name, gr, k, fy, slot, false)
	wait = s
	wait.cmd = command.Wait{}
	s.cmd = command.Submit{Cmd: s.cmd}
	return s, wait
}

// tenantModels is how many models each tenant of tenants_mixed owns and
// keeps a solve in flight on.
const tenantModels = 4

func tenantModel(conn, k int) string { return fmt.Sprintf("t%dm%d", conn, k) }

var workloads = []*workload{
	{
		name:  "iterate_small",
		why:   "warm 126-dof submit+wait jobs: the service path (wire, command, server, job, journal) is >90% of a job, and 4096-entry retention and store-cache eviction run in steady state",
		conns: 1, warmup: 1000, jobsPerUnit: 1, rate: 1100,
		build: func(g *generator, conn int) []step {
			return append(g.define("g", smallGrid, 0, g.fy[0], -1), g.solve("g", smallGrid, 0, g.fy[0], -1, true))
		},
		unit: func(g *generator, conn, i int) []step {
			s, w := g.submitWait("g", smallGrid, 0, g.fy[0], 0)
			return []step{s, w}
		},
	},
	{
		name:  "refactor_large",
		why:   "regenerate a 2050-dof plate with a new modulus and solve it cold: fem assembly and linalg plan+factor are >75% of a job, so kernel work shows here and service-path work must not",
		conns: 1, warmup: 80, jobsPerUnit: 1, rate: 85,
		build: func(g *generator, conn int) []step {
			return append(g.define("g", largeGrid, 0, g.fy[0], -1), g.solve("g", largeGrid, 0, g.fy[0], -1, true))
		},
		unit: func(g *generator, conn, i int) []step {
			k := (i + 1) % refactorVariants // unit 0 follows set-up's variant 0
			return append(g.define("g", largeGrid, k, g.fy[0], 0), g.solve("g", largeGrid, k, g.fy[0], 0, true))
		},
	},
	{
		name:  "resolve_large",
		why:   "re-solve the unchanged 2050-dof plate and recover stresses: the factor is warm, so re-assembly, cache validation and the triangular solve dominate; separates factoring faster from not redoing work",
		conns: 1, warmup: 100, jobsPerUnit: 1, rate: 112,
		build: func(g *generator, conn int) []step {
			return append(g.define("g", largeGrid, 0, g.fy[0], -1), g.solve("g", largeGrid, 0, g.fy[0], -1, true))
		},
		unit: func(g *generator, conn, i int) []step {
			s := g.solve("g", largeGrid, 0, g.fy[0], 0, false)
			return []step{s, {cmd: command.Stresses{Model: "g"}, slot: 0, ref: s.ref}}
		},
	},
	{
		name:  "tenants_mixed",
		why:   "two tenants on a file store, four pipelined solves each, with store writes beside retrieve reads: the only concurrent live jobs (scheduler mutex, model locks, journal under the lock)",
		conns: 2, fileStore: true, warmup: 125, jobsPerUnit: tenantModels, rate: 348,
		build: func(g *generator, conn int) []step {
			var out []step
			for k := 0; k < tenantModels; k++ {
				fy := g.fy[conn*tenantModels+k]
				out = append(out, g.define(tenantModel(conn, k), tenantGrid, 0, fy, -1)...)
				out = append(out, g.solve(tenantModel(conn, k), tenantGrid, 0, fy, -1, true))
			}
			return out
		},
		unit: func(g *generator, conn, i int) []step {
			var submits, waits, rest, retrieves []step
			for k := 0; k < tenantModels; k++ {
				name, fy := tenantModel(conn, k), g.fy[conn*tenantModels+k]
				s, w := g.submitWait(name, tenantGrid, 0, fy, k)
				submits, waits = append(submits, s), append(waits, w)
				rest = append(rest,
					step{cmd: command.Stresses{Model: name}, slot: -1, ref: s.ref},
					step{cmd: command.Store{Model: name}, slot: -1})
				if i%4 == 3 {
					retrieves = append(retrieves, step{cmd: command.Retrieve{Name: name}, slot: -1})
				}
			}
			return append(append(append(submits, waits...), rest...), retrieves...)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// check compares one reply with what the step's reference says it must
// be; solves by direct backends must match the reference bitwise.
func (s step) check(res command.Result) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", s.cmd, fmt.Sprintf(format, args...))
	}
	switch r := res.(type) {
	case *command.MaterialResult:
		if want := s.cmd.(command.SetMaterial); r.E != want.E {
			return bad("E %v, want %v", r.E, want.E)
		}
	case *command.GenerateResult:
		if r.Nodes != s.ref.nodes || r.Elements != s.ref.elements {
			return bad("%d nodes %d elements, want %d %d", r.Nodes, r.Elements, s.ref.nodes, s.ref.elements)
		}
	case *command.EndLoadResult:
		if r.Entries != s.ref.loadEntries {
			return bad("%d load entries, want %d", r.Entries, s.ref.loadEntries)
		}
	case *command.SubmitResult:
		if r.ID <= 0 {
			return bad("job id %d", r.ID)
		}
	case *command.SolveResult:
		if r.MaxDisp != s.ref.maxDisp || r.MaxDOF != s.ref.maxDOF {
			return bad("max displacement %v at %d, want %v at %d", r.MaxDisp, r.MaxDOF, s.ref.maxDisp, s.ref.maxDOF)
		}
		if r.Refactored != s.refactored {
			return bad("refactored %v, want %v", r.Refactored, s.refactored)
		}
	case *command.StressesResult:
		if r.Elements != s.ref.elements || r.MaxVonMises != s.ref.maxVonMises || r.MaxElem != s.ref.maxElem {
			return bad("%d elements, von Mises %v at %d, want %d, %v at %d",
				r.Elements, r.MaxVonMises, r.MaxElem, s.ref.elements, s.ref.maxVonMises, s.ref.maxElem)
		}
	case *command.StoreResult:
		if r.LoadSets != 1 {
			return bad("%d load sets stored, want 1", r.LoadSets)
		}
	case *command.RetrieveResult:
		if r.LoadSets != 1 {
			return bad("%d load sets retrieved, want 1", r.LoadSets)
		}
	default:
		return bad("unexpected reply %T", res)
	}
	return nil
}

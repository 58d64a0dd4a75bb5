package command

import (
	"fmt"
	"sort"
	"strings"
)

// Result is one typed AUVM reply.  String renders the exact display line
// the REPL shows, so the interactive shell is result.String() and
// nothing more; programmatic callers read the struct fields instead.
type Result interface {
	fmt.Stringer
	// isResult restricts the interface to this package's result structs.
	isResult()
}

// HelpResult is the reply to Help.
type HelpResult struct{}

// PingResult is the reply to Ping.
type PingResult struct {
	// Degraded reports that the system's store has gone read-only (see
	// store.Guard); false on a healthy system, so pre-degradation
	// renderings are unchanged.
	Degraded bool
	// UptimeSeconds is whole seconds since the serving system started
	// (rev 4).  Machine-readable only: String never renders it, so the
	// "pong" line stays byte-identical to rev 3; zero is omitted on the
	// wire.
	UptimeSeconds int64 `json:"uptime_s,omitempty"`
}

// VersionResult is the reply to Version.
type VersionResult struct {
	// Server names the serving program ("fem2" for a local session, the
	// daemon echoes the same — the command surface is identical).
	Server string
	// Release is the software release.
	Release string
	// Protocol is the wire protocol revision (see ProtocolVersion).
	Protocol int
	// Storage is the active storage backend ("mem", "file"); "" on
	// replies from releases that predate durable storage.
	Storage string
	// Degraded reports read-only degraded mode, as on PingResult.
	Degraded bool
	// UptimeSeconds is whole seconds since the serving system started
	// (rev 4); JSON-only and never rendered, as on PingResult.
	UptimeSeconds int64 `json:"uptime_s,omitempty"`
}

// QuitResult is the reply to Quit (delivered alongside ErrQuit).
type QuitResult struct{}

// DefineResult is the reply to Define.
type DefineResult struct {
	// Name is the new model's name.
	Name string
}

// MaterialResult is the reply to SetMaterial: the material now in
// effect.
type MaterialResult struct {
	// E, Nu, T, A echo the session's current material.
	E, Nu, T, A float64
}

// GenerateResult is the reply to the generate verbs.
type GenerateResult struct {
	// Kind is "grid", "truss", or "bar"; Name is the model name.
	Kind, Name string
	// Nodes and Elements count the generated mesh (Elements counts
	// members for a truss and segments for a bar).
	Nodes, Elements int
}

// NodeResult is the reply to AddNode.
type NodeResult struct {
	// ID is the new node's index; X, Y its coordinates.
	ID   int
	X, Y float64
}

// ElementResult is the reply to AddBar and AddCST.
type ElementResult struct {
	// Kind is "bar" or "cst"; Model the owning model; Nodes the element
	// connectivity.
	Kind, Model string
	Nodes       []int
}

// FixResult is the reply to FixNode and FixDOF.
type FixResult struct {
	// What is "node" or "dof"; Index the fixed index.
	What  string
	Index int
}

// LoadSetResult is the reply to DefineLoadSet.
type LoadSetResult struct {
	// Model and Set name the created load set.
	Model, Set string
}

// LoadResult is the reply to AddLoad.
type LoadResult struct {
	// DOF and Value echo the applied load; Entries counts the set's
	// loads after the append.
	DOF     int
	Value   float64
	Entries int
}

// EndLoadResult is the reply to EndLoad.
type EndLoadResult struct {
	// Set names the load set; Entries counts the edge nodes loaded.
	Set     string
	Entries int
}

// SolveResult is the reply to Solve.
type SolveResult struct {
	// Model and Set name the solved system.
	Model, Set string
	// Backend is the solver engine's registry name.  For a
	// substructured solve it echoes the requested backend while the
	// condensation path performs its own direct solves — matching the
	// REPL's historical display.
	Backend string
	// Precond is the preconditioner applied, "" when none.
	Precond string
	// Parallel is the worker count a parallel solve ran on — at most the
	// count asked for, the partition makes no more blocks than there are
	// free dofs — and 0 otherwise.
	Parallel int
	// Substructures is the band count of a substructured solve, 0
	// otherwise.
	Substructures int
	// Iterations counts solver iterations, 0 for direct solves.
	Iterations int
	// Residual is the relative residual of the reduced system (0 where
	// not measured, e.g. substructured solves).
	Residual float64
	// HaloWords and Makespan are the simulated-machine statistics of a
	// parallel solve.
	HaloWords int64
	Makespan  int64
	// Flops counts the solve's floating point work (assembly plus
	// solver) — the per-job attribution the job service reports.
	Flops int64
	// Refactored reports whether a direct solve computed a fresh
	// factorisation; false when the per-model factor cache served a warm
	// factor, so the solve cost one triangular solve.  Iterative,
	// parallel, and substructured solves always report true.
	Refactored bool
	// MaxDisp is the largest displacement magnitude, at dof MaxDOF.
	MaxDisp float64
	MaxDOF  int
}

// Engine renders the backend+precond pair ("cg+jacobi", "cholesky").
func (r SolveResult) Engine() string {
	if r.Precond != "" {
		return r.Backend + "+" + r.Precond
	}
	return r.Backend
}

// StressesResult is the reply to Stresses.
type StressesResult struct {
	// Model names the model; Elements counts its elements.
	Model    string
	Elements int
	// MaxVonMises is the worst element stress, in element MaxElem.
	MaxVonMises float64
	MaxElem     int
}

// ModelInfoResult is the reply to Display{What: DisplayModel}.
type ModelInfoResult struct {
	// Name is the model name.
	Name string
	// Nodes, DOFs, and Fixed count the mesh.
	Nodes, DOFs, Fixed int
	// ElementCounts maps element kind to count.
	ElementCounts map[string]int
}

// DisplacementsResult is the reply to Display{What: DisplayDisplacements}.
type DisplacementsResult struct {
	// Model names the solved model.
	Model string
	// MaxDisp is the largest displacement magnitude, at dof MaxDOF;
	// Norm is the displacement vector's infinity norm.
	MaxDisp float64
	MaxDOF  int
	Norm    float64
}

// StressSummaryResult is the reply to Display{What: DisplayStresses}.
type StressSummaryResult struct {
	// Model names the stressed model; Elements counts its elements.
	Model    string
	Elements int
	// MaxVonMises is the worst element stress, in element MaxElem.
	MaxVonMises float64
	MaxElem     int
}

// StoreResult is the reply to Store.
type StoreResult struct {
	// Name is the stored model; LoadSets counts the sets stored with it.
	Name     string
	LoadSets int
}

// RetrieveResult is the reply to Retrieve.
type RetrieveResult struct {
	// Name is the retrieved model; LoadSets counts the sets retrieved
	// with it.
	Name     string
	LoadSets int
}

// DeleteResult is the reply to Delete.
type DeleteResult struct {
	// Name is the deleted model's name.
	Name string
}

// ListResult is the reply to List.
type ListResult struct {
	// What is the enumerated store.
	What ListKind
	// Names are the model names, sorted.
	Names []string
	// Bytes is the database's serialized size (ListDB only).
	Bytes int64
	// Words is the workspace's word footprint (ListWorkspace only).
	Words int64
}

// SnapshotResult is the reply to Snapshot.
type SnapshotResult struct {
	// Path is the snapshot file written (on the serving side).
	Path string
	// Models counts the workspace models captured.
	Models int
	// Bytes is the snapshot file's size.
	Bytes int64
}

// RestoreResult is the reply to Restore.
type RestoreResult struct {
	// Path is the snapshot file read (on the serving side).
	Path string
	// Models counts the models loaded into the workspace.
	Models int
}

// SubmitResult is the reply to Submit.
type SubmitResult struct {
	// ID is the new job's id.
	ID int64
	// State is the job's state at reply time: "queued" for heavy
	// commands handed to the scheduler's workers, a terminal state for cheap
	// commands the scheduler ran inline.
	State JobState
	// Cmd is the submitted command's canonical line.
	Cmd string
}

// JobStatusResult is the reply to Status.
type JobStatusResult struct {
	// ID is the job id; Owner the submitting user.
	ID    int64
	Owner string
	// State is the job's lifecycle state.
	State JobState
	// Cmd is the job's command, canonical line.
	Cmd string
	// Error is the failure message of a failed job, "" otherwise.
	Error string
	// Ops, Flops, and Cycles are the job's own accounting: AUVM
	// operations charged while it ran, solver flops, and simulated
	// machine cycles (parallel solves only).
	Ops, Flops, Cycles int64
}

// JobRow is one line of a JobsResult.
type JobRow struct {
	// ID is the job id; Owner the submitting user.
	ID    int64
	Owner string
	// State is the job's lifecycle state.
	State JobState
	// Cmd is the job's command, canonical line.
	Cmd string
}

// JobsResult is the reply to Jobs.
type JobsResult struct {
	// Rows are the matching jobs, ascending id.
	Rows []JobRow
}

// CancelResult is the reply to Cancel.
type CancelResult struct {
	// ID is the job id.
	ID int64
	// State is the job's state after the cancel attempt: "cancelled"
	// when the job was stopped before running, "running" when the stop
	// signal was delivered to a live job, or the terminal state of a job
	// that had already finished.
	State JobState
}

// StatEntry is one named counter or gauge value in a StatsResult.
type StatEntry struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// StatBucket is one non-empty latency-histogram bucket: Count
// observations with 2^(Pow-1) <= v < 2^Pow nanoseconds (Pow 0 is
// exactly zero).
type StatBucket struct {
	Pow   int   `json:"pow"`
	Count int64 `json:"count"`
}

// StatHistogram is one latency histogram in a StatsResult.
type StatHistogram struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	Buckets []StatBucket `json:"buckets,omitempty"`
}

// StatsResult is the reply to Stats: the serving system's live-metrics
// snapshot (see internal/obs).  Sections are sorted by metric name, so
// the rendering of a given snapshot is stable and a decoded result
// renders byte-identically to the serving side's.
type StatsResult struct {
	// UptimeSeconds is whole seconds since the serving system started.
	UptimeSeconds int64 `json:"uptime_s"`
	// Counters, Gauges, and Histograms list every registered metric,
	// ascending by name; empty sections are omitted.
	Counters   []StatEntry     `json:"counters,omitempty"`
	Gauges     []StatEntry     `json:"gauges,omitempty"`
	Histograms []StatHistogram `json:"histograms,omitempty"`
}

func (HelpResult) isResult()          {}
func (PingResult) isResult()          {}
func (VersionResult) isResult()       {}
func (QuitResult) isResult()          {}
func (DefineResult) isResult()        {}
func (MaterialResult) isResult()      {}
func (GenerateResult) isResult()      {}
func (NodeResult) isResult()          {}
func (ElementResult) isResult()       {}
func (FixResult) isResult()           {}
func (LoadSetResult) isResult()       {}
func (LoadResult) isResult()          {}
func (EndLoadResult) isResult()       {}
func (SolveResult) isResult()         {}
func (StressesResult) isResult()      {}
func (ModelInfoResult) isResult()     {}
func (DisplacementsResult) isResult() {}
func (StressSummaryResult) isResult() {}
func (StoreResult) isResult()         {}
func (RetrieveResult) isResult()      {}
func (DeleteResult) isResult()        {}
func (ListResult) isResult()          {}
func (SnapshotResult) isResult()      {}
func (RestoreResult) isResult()       {}
func (SubmitResult) isResult()        {}
func (JobStatusResult) isResult()     {}
func (JobsResult) isResult()          {}
func (CancelResult) isResult()        {}
func (StatsResult) isResult()         {}

// String renders the REPL display line: one header, then one line per
// metric, sections in counter/gauge/histogram order.  Histogram lines
// show count, mean, and the populated power-of-two buckets.
func (r StatsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats (uptime %ds)", r.UptimeSeconds)
	for _, c := range r.Counters {
		fmt.Fprintf(&b, "\n  counter %s = %d", c.Name, c.Value)
	}
	for _, g := range r.Gauges {
		fmt.Fprintf(&b, "\n  gauge %s = %d", g.Name, g.Value)
	}
	for _, h := range r.Histograms {
		mean := int64(0)
		if h.Count > 0 {
			mean = h.SumNS / h.Count
		}
		fmt.Fprintf(&b, "\n  hist %s: n=%d mean=%dns", h.Name, h.Count, mean)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, " 2^%d:%d", bk.Pow, bk.Count)
		}
	}
	return b.String()
}

// String renders the REPL display line.
func (HelpResult) String() string { return helpText }

// String renders the REPL display line.
func (r PingResult) String() string {
	if r.Degraded {
		return "pong (degraded)"
	}
	return "pong"
}

// String renders the REPL display line.
func (r VersionResult) String() string {
	health := ""
	if r.Degraded {
		health = ", degraded"
	}
	if r.Storage == "" {
		return fmt.Sprintf("%s %s (protocol %d%s)", r.Server, r.Release, r.Protocol, health)
	}
	return fmt.Sprintf("%s %s (protocol %d, storage %s%s)", r.Server, r.Release, r.Protocol, r.Storage, health)
}

// String renders the REPL display line.
func (QuitResult) String() string { return "bye" }

// String renders the REPL display line.
func (r DefineResult) String() string { return fmt.Sprintf("defined structure %q", r.Name) }

// String renders the REPL display line.
func (r MaterialResult) String() string {
	return fmt.Sprintf("material E=%g nu=%g t=%g A=%g", r.E, r.Nu, r.T, r.A)
}

// String renders the REPL display line.
func (r GenerateResult) String() string {
	switch r.Kind {
	case "truss":
		return fmt.Sprintf("generated truss %q: %d nodes, %d members", r.Name, r.Nodes, r.Elements)
	case "bar":
		return fmt.Sprintf("generated bar %q: %d segments", r.Name, r.Elements)
	default:
		return fmt.Sprintf("generated grid %q: %d nodes, %d elements", r.Name, r.Nodes, r.Elements)
	}
}

// String renders the REPL display line.
func (r NodeResult) String() string {
	return fmt.Sprintf("node %d at (%g, %g)", r.ID, r.X, r.Y)
}

// String renders the REPL display line.
func (r ElementResult) String() string {
	ns := make([]string, len(r.Nodes))
	for i, n := range r.Nodes {
		ns[i] = fmt.Sprint(n)
	}
	return fmt.Sprintf("%s %s added to %q", r.Kind, strings.Join(ns, "-"), r.Model)
}

// String renders the REPL display line.
func (r FixResult) String() string { return fmt.Sprintf("%s %d fixed", r.What, r.Index) }

// String renders the REPL display line.
func (r LoadSetResult) String() string {
	return fmt.Sprintf("load set %q on %q", r.Set, r.Model)
}

// String renders the REPL display line.
func (r LoadResult) String() string {
	return fmt.Sprintf("load %g on dof %d (%d entries)", r.Value, r.DOF, r.Entries)
}

// String renders the REPL display line.
func (r EndLoadResult) String() string {
	return fmt.Sprintf("end load %q: %d entries", r.Set, r.Entries)
}

// String renders the REPL display line.
func (r SolveResult) String() string {
	if r.Parallel > 0 {
		return fmt.Sprintf("solved %q/%q in parallel on %d workers (%s): %d iterations, %d halo words, makespan %d cycles; max |u| = %g at dof %d",
			r.Model, r.Set, r.Parallel, r.Engine(), r.Iterations, r.HaloWords, r.Makespan, r.MaxDisp, r.MaxDOF)
	}
	if r.Iterations > 0 {
		return fmt.Sprintf("solved %q/%q (%s): %d iterations, residual %.3g; max |u| = %g at dof %d",
			r.Model, r.Set, r.Engine(), r.Iterations, r.Residual, r.MaxDisp, r.MaxDOF)
	}
	return fmt.Sprintf("solved %q/%q (%s): max |u| = %g at dof %d",
		r.Model, r.Set, r.Engine(), r.MaxDisp, r.MaxDOF)
}

// String renders the REPL display line.
func (r StressesResult) String() string {
	return fmt.Sprintf("stresses for %q: %d elements, max von Mises %g in element %d",
		r.Model, r.Elements, r.MaxVonMises, r.MaxElem)
}

// String renders the REPL display line.
func (r ModelInfoResult) String() string {
	ks := make([]string, 0, len(r.ElementCounts))
	for k, c := range r.ElementCounts {
		ks = append(ks, fmt.Sprintf("%d %s", c, k))
	}
	sort.Strings(ks)
	return fmt.Sprintf("model %q: %d nodes, %d dofs (%d fixed), elements: %s",
		r.Name, r.Nodes, r.DOFs, r.Fixed, strings.Join(ks, ", "))
}

// String renders the REPL display line.
func (r DisplacementsResult) String() string {
	return fmt.Sprintf("displacements of %q: |u|∞ = %g (dof %d), norm %g",
		r.Model, r.MaxDisp, r.MaxDOF, r.Norm)
}

// String renders the REPL display line.
func (r StressSummaryResult) String() string {
	return fmt.Sprintf("stresses of %q: max von Mises %g in element %d of %d",
		r.Model, r.MaxVonMises, r.MaxElem, r.Elements)
}

// String renders the REPL display line.
func (r StoreResult) String() string {
	return fmt.Sprintf("stored %q (%d load sets) in data base", r.Name, r.LoadSets)
}

// String renders the REPL display line.
func (r RetrieveResult) String() string {
	return fmt.Sprintf("retrieved %q (%d load sets) into workspace", r.Name, r.LoadSets)
}

// String renders the REPL display line.
func (r DeleteResult) String() string {
	return fmt.Sprintf("deleted %q from data base", r.Name)
}

// String renders the REPL display line.
func (r SnapshotResult) String() string {
	return fmt.Sprintf("snapshot %q: %d models, %d bytes", r.Path, r.Models, r.Bytes)
}

// String renders the REPL display line.
func (r RestoreResult) String() string {
	return fmt.Sprintf("restored %d models from %q", r.Models, r.Path)
}

// String renders the REPL display line.
func (r SubmitResult) String() string {
	return fmt.Sprintf("submitted job-%d (%s): %s", r.ID, r.State, r.Cmd)
}

// String renders the REPL display line.
func (r JobStatusResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job-%d %s (owner %q): %s", r.ID, r.State, r.Owner, r.Cmd)
	if r.Error != "" {
		fmt.Fprintf(&b, " — %s", r.Error)
	}
	if r.Flops > 0 || r.Cycles > 0 {
		fmt.Fprintf(&b, " [%d flops, %d cycles]", r.Flops, r.Cycles)
	}
	return b.String()
}

// String renders the REPL display line.
func (r JobsResult) String() string {
	if len(r.Rows) == 0 {
		return "no jobs"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "jobs (%d):", len(r.Rows))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n  job-%-4d %-9s %-10s %s", row.ID, row.State, row.Owner, row.Cmd)
	}
	return b.String()
}

// String renders the REPL display line.
func (r CancelResult) String() string {
	switch r.State {
	case JobCancelled:
		return fmt.Sprintf("cancelled job-%d", r.ID)
	case JobRunning:
		return fmt.Sprintf("cancel requested for running job-%d", r.ID)
	default:
		return fmt.Sprintf("job-%d already %s", r.ID, r.State)
	}
}

// String renders the REPL display line.
func (r ListResult) String() string {
	if r.What == ListWorkspace {
		return fmt.Sprintf("workspace (%d models, %d words): %s",
			len(r.Names), r.Words, strings.Join(r.Names, " "))
	}
	return fmt.Sprintf("data base (%d models, %d bytes): %s",
		len(r.Names), r.Bytes, strings.Join(r.Names, " "))
}

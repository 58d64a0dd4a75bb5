package obs

// The canonical metric catalog.  Every instrumented package resolves
// its metrics by these names, the stats verb and the emitter expose
// them verbatim, and docs/observability.md documents each one — a
// single vocabulary from hot path to dashboard.
//
// Dynamic families (per-verb latency) are built with the prefix
// constants: "job.latency.solve", "server.request.ping", …
const (
	// Job service (internal/job).
	JobSubmitted     = "job.submitted"      // counter: jobs admitted (inline + pooled)
	JobDone          = "job.done"           // counter: jobs finished successfully
	JobFailed        = "job.failed"         // counter: jobs finished in error
	JobCancelled     = "job.cancelled"      // counter: jobs cancelled (queued or mid-run)
	JobQuotaRejected = "job.quota_rejected" // counter: submissions refused by per-owner quota
	JobJournalErrors = "job.journal_errors" // counter: journal writes that failed (scheduler carried on)
	JobQueueDepth    = "job.queue_depth"    // gauge: heavy jobs waiting for a worker or a model lock
	JobRunning       = "job.running"        // gauge: jobs executing right now (worker utilization numerator)
	JobWorkers       = "job.workers"        // gauge: bound on jobs executing at once (utilization denominator)
	JobSettled       = "job.settled"        // gauge: retained jobs held by their journal record alone
	JobLatencyPrefix = "job.latency."       // histogram family: execution time per verb

	// Per-solver-backend solve cost (internal/auvm doSolve): one
	// histogram per backend actually used, e.g. job.latency.solve.cg
	// vs job.latency.solve.cholesky-env.  Covers sync solves and
	// scheduled jobs alike — both funnel through the same session path.
	JobLatencySolvePrefix = "job.latency.solve." // histogram family: solve wall time per backend

	// Durable store (internal/store).
	StoreCacheHits       = "store.cache_hits"       // counter: no longer emitted (no read cache in the daemon); the benchmark still reads it
	StoreCacheMisses     = "store.cache_misses"     // counter: as store.cache_hits
	StoreGuardTrips      = "store.guard_trips"      // counter: times the guard entered degraded mode
	StoreDegraded        = "store.degraded"         // gauge: 1 while the store is read-only, else 0
	StoreDegradedSeconds = "store.degraded_seconds" // counter: whole seconds spent degraded (completed episodes)
	StoreGetLatency      = "store.get"              // histogram: Get latency at the guard
	StorePutLatency      = "store.put"              // histogram: Put latency at the guard (each Put counts in store.batch too)
	StoreBatchLatency    = "store.batch"            // histogram: write latency at the guard: Put, Delete, Batch, BatchIf

	// Network front end (internal/server).
	ServerConnections   = "server.connections"    // gauge: open client connections
	ServerFramesIn      = "server.frames_in"      // counter: request frames decoded
	ServerFramesOut     = "server.frames_out"     // counter: response/notification frames written
	ServerFramesGeneral = "server.frames_general" // counter: request frames not in canonical form, decoded by the general path (docs/protocol.md); 0 when every client is ours
	ServerFlushes       = "server.flushes"        // counter: socket flushes; frames_out / flushes is how many frames share one write
	ServerEventsDropped = "server.events_dropped" // counter: job notifications dropped because a subscribed connection's event queue was full (status/wait stay authoritative)
	ServerPanics        = "server.panics"         // counter: panics recovered while executing a command (request goroutine or scheduled job), answered as errors
	ServerReaderRuns    = "server.reader_runs"    // counter: runs under the hand-off timer — synchronous solves, and submitted Heavy jobs, a connection's reader ran itself (no goroutine, no worker woken)
	ServerHandOffs      = "server.hand_offs"      // counter: reader runs that passed the socket to a successor reader: at once, or on outlasting the hand-off time
	ServerRequestPrefix = "server.request."       // histogram family: decode-to-reply latency per verb

	// Direct-solve factor cache (internal/linalg; each fem.Model owns one).
	FactorHits      = "factor.hits"      // counter: solves served by a warm factor
	FactorMisses    = "factor.misses"    // counter: solves that had to plan (cold or pattern change)
	FactorRefactors = "factor.refactors" // counter: numeric refactorisations (misses included)
	FactorFlops     = "factor.flops"     // counter: floating-point operations spent in those refactorisations (a failed one's up to its failing pivot)

	// Retained assembly (internal/fem Solve).
	AssembleSymbolic  = "assemble.symbolic"  // counter: solves that built a symbolic assembly (no plan to inherit, or topology changed)
	AssembleReused    = "assemble.reused"    // counter: solves that skipped the symbolic phase (numeric re-assembly at most)
	AssembleUnchanged = "assemble.unchanged" // counter: reusing solves that skipped the numeric phase too (every stiffness input bit-identical to the record); always <= assemble.reused

	// Network client (internal/client).
	ClientReconnects = "client.reconnects" // counter: dead connections replaced
	ClientRetries    = "client.retries"    // counter: request attempts beyond the first
	ClientFailovers  = "client.failovers"  // counter: endpoint switches (redirects + dead-endpoint rotation)

	// Cluster coordination (internal/cluster).
	ClusterLeader       = "cluster.leader"        // gauge: 1 while this daemon holds the lease, else 0
	ClusterEpoch        = "cluster.epoch"         // gauge: current lease epoch as seen by this daemon
	ClusterFailovers    = "cluster.failovers"     // counter: takeovers this daemon performed (lease acquired after expiry)
	ClusterFencedWrites = "cluster.fenced_writes" // counter: writes rejected because this daemon's epoch went stale
	ClusterRenewLatency = "cluster.lease_renew"   // histogram: lease renewal round-trip against the store

	// The simulated machine, one counter per level and quantity the
	// design method measures (level.go; LevelReport renders them).
	AUVMOps            = "auvm.ops"             // counter: commands interpreted: served, refused, malformed, or run as a job
	NAVMOps            = "navm.ops"             // counter: task types registered
	NAVMFlops          = "navm.flops"           // counter: floating-point operations charged by tasks
	NAVMMsgs           = "navm.msgs"            // counter: initiate, terminate, remote window and halo messages sent
	NAVMMsgWords       = "navm.msg_words"       // counter: words those messages carried
	NAVMLocalAccesses  = "navm.local_accesses"  // counter: window and halo accesses served from the task's own cluster
	NAVMRemoteAccesses = "navm.remote_accesses" // counter: window accesses that crossed clusters
	NAVMWordsAlloc     = "navm.words_alloc"     // counter: words of distributed arrays and CG workspace allocated
	SPVMOps            = "spvm.ops"             // counter: messages the cluster kernels decoded
	SPVMTasksInitiated = "spvm.tasks_initiated" // counter: activation records created by initiate messages
	SPVMWordsAlloc     = "spvm.words_alloc"     // counter: kernel heap and code-store words allocated
	SPVMWordsFreed     = "spvm.words_freed"     // counter: kernel heap words freed at task termination
	ARCHMsgs           = "arch.msgs"            // counter: network messages delivered and remote fetches
	ARCHMsgWords       = "arch.msg_words"       // counter: words those carried
	ARCHCycles         = "arch.cycles"          // counter: simulated PE cycles charged
)

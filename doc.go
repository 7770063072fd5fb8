// Package ivliw is a from-scratch reproduction of "Effective Instruction
// Scheduling Techniques for an Interleaved Cache Clustered VLIW Processor"
// (Enric Gibert, Jesús Sánchez, Antonio González — MICRO-35, 2002).
//
// The library contains the paper's compiler — modulo scheduling with swing
// ordering, selective loop unrolling, profile-guided latency assignment,
// memory dependent chains and the BASE/IBC/IPBC cluster-assignment
// heuristics — together with a cycle-level simulator of the three machine
// organizations the paper evaluates: a word-interleaved distributed data
// cache (optionally with Attraction Buffers), the cache-coherent multiVLIW,
// and a unified centralized cache.
//
// # Quick start
//
// Build a loop, wrap it in a Program (which fixes the data layout for the
// profile and execution data sets), compile it with one of the paper's
// heuristics and simulate it:
//
//	cfg := ivliw.DefaultConfig()           // Table 2 machine, interleaved cache
//	cfg.AttractionBuffers = true
//
//	b := ivliw.NewLoop("saxpy", 256, 1)
//	x := b.Load("x", ivliw.MemInfo{Sym: "x", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
//	m := b.Op("mul", ivliw.OpFPALU)
//	s := b.Store("y", ivliw.MemInfo{Sym: "y", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
//	b.Flow(x, m).Flow(m, s)
//	loop := b.MustBuild()
//
//	prog, err := ivliw.NewProgram(cfg, loop)   // validates cfg once
//	if err != nil { ... }
//	compiled, err := prog.Compile(loop, ivliw.CompileOptions{
//	    Heuristic: ivliw.IPBC,
//	    Unroll:    ivliw.Selective,
//	})
//	if err != nil { ... }
//	res := prog.Run(compiled)
//	fmt.Println(res.II, res.TotalCycles(), res.LocalHitRatio())
//
// The full benchmark harness behind the paper's figures lives in
// cmd/ivliw-bench; per-figure drivers are exposed through the same module's
// internal/experiments package and the top-level benchmarks in
// bench_test.go.
//
// # Declarative sweeps
//
// The paper evaluates one machine point (Table 2). The public ivliw/sweep
// package generalizes every constant of that point into an axis of a
// declarative, JSON-serializable sweep.Spec — the one way to run
// design-space experiments — with four orthogonal pieces:
//
//   - sweep.Spec describes a whole run as data: the machine grid (cluster
//     count, interleaving factor, cache geometry, FU mix, register buses,
//     Attraction Buffer size and hint budget, MSHR depth, bus and memory
//     latencies), the workload selection (paper benchmarks by name,
//     explicit sweep.SynthSpec synthetic workloads, or a seeded generated
//     population), the compiler configuration, the shard, the artifact
//     store and the output. Specs Validate() and round-trip through
//     Encode/ParseSpec byte-identically, so a run is a reproducible file
//     instead of flag soup;
//   - artifact stores make runs start warm: stage-1 compilations resolve
//     through a bounded in-memory LRU, optionally layered over a
//     persistent content-addressed on-disk store (Spec.Store.Dir) that is
//     corruption-safe (a damaged file is a miss, recompiled and atomically
//     rewritten) and shared freely across processes;
//   - sweep.Shard{Index, Count} partitions the row grid contiguously by
//     row index: the concatenation of all shards' JSONL outputs is
//     byte-identical to the unsharded run, so a grid can fan out across
//     processes or hosts from one spec file and one artifact directory;
//   - sweep.Sink consumes the rows (JSONL writer, in-memory Collector,
//     Func callback); a failing cell — e.g. an infeasible machine point —
//     yields a row with Error set instead of aborting the run.
//
// `ivliw-bench` is a thin front end over the package: the -sweep-* flags
// parse into a Spec, -spec-out captures that Spec as a file, -spec runs a
// spec file, and -shard/-artifact-dir select the slice and the persistent
// store. examples/design-sweep walks a small grid end to end;
// examples/sharded-sweep demonstrates spec files, 3-way sharding and warm
// disk-store starts against the public package alone.
//
// # Coordinated sweeps
//
// sweep.Coordinate turns the manual sharding pattern ("ship the spec file,
// run every shard, cat the outputs") into one crash-safe call: it expands a
// Spec into n shard specs, runs them through a pluggable sweep.Launcher —
// sweep.InProcess (goroutines) or sweep.Exec (worker subprocesses running
// `ivliw-bench -spec F -shard i/n -out O`; prefixing the command with `ssh
// host` is the multi-host seam over a shared filesystem) — retries failed
// attempts and optionally relaunches stragglers within per-shard attempt
// caps, and stitches the per-shard JSONL files into the final output
// byte-identical to the unsharded run (gated by scripts/ci.sh).
//
// The coordinator is built on an all-or-nothing file discipline: shard
// outputs, the manifest and the stitched result only ever appear via
// whole-file atomic renames, so no reader can observe a truncated file. A
// manifest in the work directory records the spec fingerprint and every
// shard's status and attempt count, rewritten atomically on each
// transition; a coordinator killed at any instant — including mid-write —
// resumes by rerunning the same command over the same directory, restoring
// completed shards for free (and, with a shared Spec.Store.Dir, even the
// dead shards' compilations). Canceling the context (SIGINT/SIGTERM in
// `ivliw-bench`, which then exits 130) tears attempts down promptly and
// leaves only committed state behind. `ivliw-bench -coordinate n` wraps
// the whole workflow as a CLI; examples/coordinated-sweep exercises
// failure injection, stitching and resume against the public package.
//
// # Worker pools and health
//
// sweep.Pool is the health-checked Launcher: it schedules shard attempts
// across a registry of sweep.Worker entries (each a command prefix — the
// ssh seam again — plus advertised capacity, used to size the per-shard
// `-workers`, and a slot count bounding concurrent attempts). Liveness is
// heartbeat-based rather than deadline-based: every attempt writes an
// atomically renamed beat file (`ivliw-bench -heartbeat`, or
// Spec.Heartbeat via sweep.Run), the final beat carries the row count and
// the sha256 of the committed output, and the pool kills any attempt whose
// beats go stale — catching a hung worker in O(StaleAfter) instead of
// waiting out a straggler deadline sized for the slowest honest shard. The
// done-beat checksum is re-verified against the shard file before the
// attempt counts as complete, so a corrupted output is retried instead of
// stitched.
//
// Failure domains are per worker: consecutive failures quarantine the
// worker under capped exponential backoff with deterministic jitter
// (readmitted after the delay), and a worker that dies requeues all of its
// in-flight shards at once onto the survivors. The coordinator manifest
// records, per attempt, which worker served it and how it failed. A
// deterministic fault harness (ivliw/sweep/fault, armed via the
// IVLIW_FAULT_PLAN env var) scripts crashes, hangs, stale heartbeats,
// corrupt outputs and dead workers by shard/attempt/worker, which is how
// scripts/ci.sh step 8 gates that shard outputs stay byte-identical under
// every recovery path. `ivliw-bench -coordinate n -coordinate-launch pool`
// wraps it; examples/worker-pool drives a faulted pool end to end.
//
// # Cost-balanced coordination
//
// Count-balanced shard cuts assume rows cost the same, but an 8-cluster
// jpegenc row compiles orders of magnitude slower than a 2-cluster one, so
// one shard can dominate wall time. sweep.Calibration is a small persisted
// cost model — per-cluster-count compile and simulate costs (geometrically
// interpolated between measured points), a cache-geometry exponent and a
// sim-batch sharing discount — that prices every row of a grid from its
// config axes. sweep.Calibrate measures it on the actual machine
// (`ivliw-bench -calibrate calibration.json`; the file is strict-parsed
// like a Spec and atomically written, meant to live next to the BENCH_N
// snapshots), and CoordinatorOptions.Calibration loads it back — a missing
// or corrupt file degrades to the built-in default model with a warning,
// never a failure.
//
// Two scheduling layers spend the model. With
// CoordinatorOptions.Balance == BalanceCost (`-coordinate-balance cost`),
// shard cuts equalize predicted cost instead of row count, cutting only on
// compile-key atom boundaries (sibling runs of rows sharing one compiled
// artifact) so no artifact is compiled twice across shards. With
// CoordinatorOptions.Steal > 0 (`-coordinate-steal k`), static slices are
// replaced by a work-stealing queue: the grid is cut into up to k×n
// cost-ordered chunks, and idle workers claim the heaviest remaining chunk
// — a straggling chunk delays only itself. Chunks pin explicit row ranges
// through Shard.Lo/Hi (CLI protocol: `ivliw-bench -spec F -claim lo:hi`),
// and byte-identity holds by construction: rows are keyed by grid index,
// chunks tile the grid exactly, and the stitcher concatenates committed
// chunk files in index order (gated by scripts/ci.sh step 10 across the
// in-process, exec and pool launchers, including an injected chunk crash).
// Cuts that come out empty (more shards than rows, or a heavy atom
// swallowing a whole share) commit their empty output directly instead of
// launching a worker. The manifest records per-attempt wall time and
// cells/s, which is both the coordinator's slowest-task stats line and the
// raw material for recalibration.
//
// # Sweep as a service
//
// ivliw/sweep/serve turns the sweep engine into a long-running platform:
// `ivliw-served` is an HTTP/JSON daemon that accepts sweep.Spec
// submissions (POST /v1/jobs, strict-parsed with a bounded body), executes
// them through sweep.Coordinate on a bounded job queue with configurable
// executor slots and launcher (inproc/exec/pool), and serves job status
// (GET /v1/jobs/{job}: state, coordinator stats, per-shard attempt history
// from the manifest) and result rows (GET /v1/jobs/{job}/rows) — the
// streamed JSONL is byte-identical to the unsharded CLI run of the same
// spec, because it is the coordinator's stitched output served verbatim.
//
// The dedup contract: a job's identity is its spec's semantic hash
// (sweep.Spec.Hash — grid, workloads and compile options; per-process
// knobs like workers, stores, sharding and output naming are excluded), so
// two identical submissions cost one execution. A concurrent duplicate
// attaches to the in-flight job (job-level single-flight, mirroring
// pipeline.Cache's artifact-level one), a duplicate of a completed job is
// served from the per-job results directory with zero executions, and a
// resubmission of a failed job requeues it. `ivliw-bench -spec-hash`
// prints the hash so clients can predict dedup keys offline. Two
// *different* specs declaring the same Output.Path are rejected at
// submission (409): results are stored per job under <dir>/jobs/<hash>,
// never at client-named paths, and the collision is almost always a bug.
//
// The lifecycle is crash-safe end to end: each job directory holds the
// canonical spec, an atomically rewritten state record
// (queued/running/done/failed), the committed rows and the coordinator's
// own manifest; jobs share one content-addressed artifact store. SIGTERM
// drains gracefully — running jobs tear down through the existing
// context-cancellation path and are persisted back to queued, new
// submissions get 503 + Retry-After — and a restarted daemon over the same
// directory resumes requeued jobs from their coordinator manifests instead
// of recomputing completed shards. `ivliw-load` replays seeded mixes of
// duplicate/distinct submissions against the daemon and reports p50/p99
// submit-to-done latency, throughput and dedup hit rate (BENCH_9.json;
// gated with byte-identity and zero-execution dedup by scripts/ci.sh
// step 11).
//
// # Pipeline stages
//
// Compilation and simulation are two explicit stages with a serializable
// artifact between them (internal/pipeline):
//
//   - Stage 1 (Compile) runs unroll → latency assignment → ordering →
//     cluster assignment/scheduling over a benchmark's loops and captures
//     the result as a content-addressed Artifact: the modulo schedule (II,
//     kernel, latency assignment), the unroll factor, and the
//     compiler→simulator annotations (preferred clusters, dispersion,
//     attractable hints) as plain data. Artifacts round-trip through
//     encoding/gob.
//   - The artifact key hashes every compile-relevant input — loop IR,
//     profile seed, compiler options, alignment, and the layout-relevant
//     subset of the configuration (arch.Config.CompileKey) — and nothing
//     else. Simulate-only axes (memory buses, next-level ports, MSHR
//     depth, Attraction Buffer geometry while hints are off) do not
//     perturb the key, so sweep cells differing only in those axes share
//     one compilation through a bounded, single-flight artifact cache
//     (pipeline.Cache).
//   - Stage 2 (Simulate) builds the execution layout and cache hierarchy
//     for the cell's full configuration and runs the cycle-level simulator
//     against the (read-only, freely shared) artifact.
//
// sweep.Run streams the (point × benchmark) grid through both stages: rows
// are emitted in grid order as their cells complete, with memory bounded
// by a reorder window and the store capacity rather than the grid size, so
// 10^5+ cell grids run in constant space. Output is byte-identical for any
// store configuration, worker count and sharding (gated by scripts/ci.sh).
// On the root API, Program.CompileArtifact and Program.RunArtifact expose
// the same two stages per loop, with artifacts cached by content inside
// the Program.
//
// # Batched simulation
//
// Sweep grids are dominated by cells that differ only in simulate-only
// axes — MSHR depth, memory buses, next-level ports, Attraction Buffer
// geometry while hints are off — and those siblings share an identical
// compiled artifact, an identical execution layout, and therefore an
// identical stream of merge events. Spec.SimBatch (CLI: -sim-batch) caps
// how many sibling cells are evaluated together in one simulation pass:
// the k-way event merge, the memory-info lookups and the address → (home
// cluster, cache block) decomposition run once per event, while each
// sibling keeps its own cache hierarchy, bus model and statistics as a
// structure-of-arrays lane (pipeline.SimulateBatch over sim.RunLoopBatch).
// Simulating k siblings costs one shared front half plus k per-lane back
// halves instead of k full passes.
//
// Batching is planned inside each shard's row range: cells group by
// benchmark and compile key (pipeline.SimKey), never across shard
// boundaries, so shard outputs still concatenate byte-identically. Rows
// flow through the same reorder window in grid order and every row's
// bytes are identical with batching on or off — the per-lane simulation
// is exactly the serial simulation, only the event iteration is shared
// (gated by scripts/ci.sh step 9, including the coordinator pool path;
// the -sim-batch flag travels to pool workers through the shared base
// spec). A batch that fails as a whole falls back to simulating its
// lanes serially, so one infeasible sibling cannot smear an error over
// the others. Run stats record the economy as SimCells/SimBatches (mean
// lane width); BENCH_7.json snapshots the measured cells/s scaling curve
// over 1/2/4/8 sibling lanes.
//
// # Performance architecture
//
// The two hot paths — the compile-side recurrence-II search and the
// simulate-side access stream — are engineered for throughput (see
// PERFORMANCE.md for design notes and measured numbers):
//
//   - internal/ir compiles each cyclic SCC into a RecEngine once per graph:
//     endpoints re-indexed, edges grouped by source, per-edge latency split
//     into a fixed part plus a reference to the owning instruction's
//     assigned latency, and scratch buffers reused. Each query solves the
//     SCC's maximum cycle ratio exactly by Howard's policy iteration in
//     integer arithmetic, warm-started from the engine's previous policy,
//     so a single-load perturbation (IIWithChange) typically costs one or
//     two linear passes instead of a binary search of Bellman-Ford probes;
//   - internal/latassign solves each recurrence once more up front, with
//     all of its loads at the smallest ladder latency: that II bounds every
//     II a step can reach, so bestStep skips the solve of any candidate
//     whose best possible benefit already loses to the incumbent;
//   - internal/sched builds one scheduler per Run and resets it for each II
//     tried, reusing every buffer. Each node's incident edges are listed
//     once, in loop-edge order, so the cycle window, the copy plan and the
//     communication count walk only those edges; per-cluster load counters
//     and an insertion sort rank the candidate clusters, and a per-slot
//     array replaces the per-probe map of bus reservations;
//   - internal/sim streams memory accesses through a k-way merge over the
//     per-instruction arithmetic progressions t = cycle + i·II instead of
//     materializing and sorting the iters×mems event list;
//   - internal/experiments fans the (benchmark × variant) grid of every
//     figure across a bounded worker pool (GOMAXPROCS workers) with
//     deterministic result ordering, so cmd/ivliw-bench scales with cores
//     while emitting byte-identical reports.
//
// # Static analysis
//
// The module's two load-bearing invariants — byte-identical output across
// workers/shards/caches/coordination, and temp+rename atomicity for every
// committed file — are proven, not just tested, by a custom analysis pass:
// internal/lintcheck, run as `ivliw-vet ./...` (cmd/ivliw-vet; gated clean
// by scripts/ci.sh step 12). Five analyzers, stdlib-only (go/parser +
// go/types over `go list -deps -export`):
//
//   - atomicwrite: os.Create / os.WriteFile / os.OpenFile-for-write are
//     banned; destination files are staged through internal/atomicio
//     (CreateTemp + Rename), so no reader or restarted daemon ever sees a
//     half-written spec, manifest, beat, job record or row file.
//   - strictjson: json.Unmarshal and Decode-without-DisallowUnknownFields
//     are banned; every durable or wire record parses strictly, so format
//     drift between builds fails loudly instead of silently zeroing fields.
//   - determinism: in code reachable from sweep.Run, sim.RunLoopBatch or
//     sweep.Spec.Hash (the call graphs that produce row bytes and semantic
//     hashes), time.Now/Since, unseeded math/rand draws and map-iteration
//     into sinks/writers/hashes are banned.
//   - ctxplumb: exported work-launchers in sweep, sweep/serve and
//     internal/pipeline must accept a context.Context, and fresh root
//     contexts (context.Background/TODO) are banned in library code — the
//     `if ctx == nil { ctx = context.Background() }` default guard is the
//     one allowed form.
//   - nopanic: panic, os.Exit and log.Fatal* are banned outside package
//     main; libraries return errors.
//
// Findings are escaped — never silenced — with an annotation on the line
// above stating the reason, which the pass itself validates:
//
//	//ivliw:wallclock beat timestamps are liveness metadata, never row bytes
//	//ivliw:nonatomic fault injection: deliberately rewrites a committed file
//	//ivliw:invariant exhaustive switch over a closed enum
//
// (wallclock escapes determinism, nonatomic escapes atomicwrite, invariant
// escapes nopanic; strictjson and ctxplumb have no escape — those are
// fixed, not excused.)
package ivliw

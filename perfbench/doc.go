// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulated dedup store, in the paper's default
// configuration (4 hosts × 4 OSDs, 32 KiB static chunks, rep×2 pools,
// post-processing with watermark rate control), and prints every metric by
// name with its unit and sample count, then one JSON result line. It
// changes no program code and calls only public functions of the workload,
// client, core, rados, sim and metrics packages; the client loops, the
// open-loop scheduler and the op mixes live here.
//
// # Running
//
// From the repository root, one workload per process:
//
//	bash perfbench/run.sh --workload ingest --seed 7 --seconds 30 --trace 0
//
// run.sh builds the package into $CARGO_TARGET_DIR (default .bench_build)
// and runs it; inside perfbench, `go run . --workload ...` does the same.
// --seed is the only source of input: the same seed generates the same
// blocks, offsets and op mix, and the store receives only those generated
// inputs. A run repeats fresh trials (testbed, set-up, measured phase,
// checks) of one seed until --seconds of wall-clock time have passed, at
// least three; host times are medians over the trials, and the
// simulated-side results of every trial must match the first exactly.
//
// Host times (setup_s, run_s and the per-layer sub-phase times) are the
// process's CPU time, user plus system, from getrusage. The simulation is
// one sequential process, so the benchmark sets GOMAXPROCS to 1: every
// step, the Go collector included, runs on one core, CPU time equals
// wall-clock time on an idle host, and time the core spends on other
// tenants of a shared host is not counted. Other tenants still slow the
// benchmark's own instructions by contending for caches and memory, so
// host figures compare fairly only between runs on a similarly loaded
// host. workload.gen_s alone is wall-clock, read around each generator
// call.
//
// --trace 0 reports the end-to-end metrics: setup_s, run_s and peak_rss_MB
// (host), sim_MBps, sim_iops, the write/read p50 and p99 latencies,
// space_amp and dedup_lag_s (simulated). Ops that fail count in the
// result's failed/attempted, which is failed_frac; it is not an end-to-end
// metric, since it reads 0 on a healthy store and a regression bound
// relative to 0 means nothing.
//
// --trace 1 is the traced run and reports the per-layer metrics. Its trials
// alternate untraced and traced. Untraced trials give the layer counters
// (deltas of sim.Engine.Stats, core.Engine.Stats, the rados and QoS
// registry, Cluster.Resources and runtime.MemStats around the measured
// phase) and the host time spent in generator calls and in the measured
// phase's drain, read-back, GC and scrub. Only ingest reads back, scrubs
// and collects inside its measured phase, so core.verify_s, core.gc_s,
// core.scrub_s and the GC and scrub work counts read 0 on the other
// workloads; the checks every trial ends with are not counted. Traced
// trials run the measured phase under the Go CPU profiler and with every
// span of Cluster.Trace sampled. Each
// profile sample goes to the innermost dedupstore/internal frame's layer
// (crypto/sha256 under core.FingerprintID is core), else to runtime.gc for
// GC workers, else to other. Spans give each client op's simulated-time
// decomposition into queueing, PG-lock wait and disk, NIC and CPU service,
// and the share of client chunk reads redirected to the chunk pool.
// trace.overhead_frac is the traced run_s over the untraced one, minus 1;
// run_s stops before the profiler does, so stopping it and decoding the
// profile are not counted.
// End-to-end numbers always come from untraced trials.
//
// # Workloads
//
//   - ingest: set-up writes and flushes a 32 MiB base image; then 16
//     issuers, laid out as FIO's 4 jobs × iodepth 4 each writing its own
//     quarter sequentially, write 96 MiB of fresh 32 KiB blocks at 50%
//     dedupe_percentage while the engine flushes under rate control; the
//     measured phase then drains, reads every block back against
//     regenerated generator output, scrubs and runs GC twice. The seed
//     sets the content and so which blocks deduplicate. Blocks are
//     chunk-sized: with 64 KiB blocks the read-back p99 rests on too few
//     samples to be steady across seeds at a volume that keeps the process
//     under 1 GB.
//   - read-mostly: set-up preloads 64 MiB, drains, cools and evicts it;
//     then 16 closed-loop clients issue 8 KiB ops, 90% reads, at Zipf
//     offsets (s=1.1, v=16) with the engine running, 8000 warm-up ops
//     before 48000 measured ones, and a final drain.
//   - sfs-db: set-up builds 4 load units of 8 MiB from shared 32 KiB extents,
//     drains, cools and evicts; then each unit schedules 1500 ops/s open
//     loop in simulated time (50% 8 KiB reads, 38% 8 KiB overwrites, 12%
//     64 KiB log writes) served by 4 workers, for 5 simulated seconds of
//     which the first is warm-up, and a final drain. Latency counts from
//     each op's scheduled time. The scheduler runs in simulated time, so
//     it is never late: generator lateness is zero by construction.
//
// Every trial ends with untimed correctness gates: the ingest read-back
// (timed, inside the phase) and a read-back of everything else written
// must match what was written, and after the final drain Audit, Scrub and
// two GC passes must find nothing to repair or report: no lost chunk,
// repaired reference, fixed refcount or promoted intent from Audit, no
// scrub issue, no refcount fix or malformed key from either GC pass, and
// no stale reference on the second. Audit repairs what it finds, so a
// repair is a failure, not a pass. Ingest's in-phase Scrub and GC are held
// to the same rules. A failed gate exits non-zero and prints no result.
//
// # Regression gates
//
// `make bench-json` and scripts/bench-compare.sh still gate the golden
// sweep's total wall-clock. Performance claims cite this benchmark's named
// metrics and workloads instead; BENCHMARK.json at the repository root
// records each metric's unit, direction and regression bound, and each
// workload's rationale. The spec table in specs.go also names, for every
// per-layer metric, the end-to-end metric and workload it should move.
package main

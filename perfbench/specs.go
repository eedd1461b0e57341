package main

// spec describes one reported metric. End-to-end metrics carry the bound
// by which a change may worsen their median before it counts as a
// regression; per-layer metrics name their layer and the end-to-end metric
// (and workload) they are expected to move. BENCHMARK.json at the
// repository root repeats name, unit, direction and bound; a test keeps
// the two in step.
type spec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	host   bool   // host-time quantity: reported as a median over trials
	layer  string // per-layer only
	moves  string // per-layer only
}

var endToEndSpecs = []spec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, host: true},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25, host: true},
	{name: "peak_rss_MB", unit: "MB", better: "lower", bound: 0.15, host: true},
	{name: "sim_MBps", unit: "MB/s", better: "higher", bound: 0.1},
	{name: "sim_iops", unit: "1/s", better: "higher", bound: 0.1},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.1},
	{name: "write_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.1},
	{name: "read_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.1},
	{name: "dedup_lag_s", unit: "s", better: "lower", bound: 0.2},
}

const (
	runIngestSFS  = "run_s on ingest and sfs-db; only setup_s on read-mostly"
	runReadMostly = "run_s on read-mostly (dispatch and proc handoff); little on ingest"
	radosMoves    = "host: run_s on ingest; sim: write_p99_ms/read_p99_ms on sfs-db"
	coreMoves     = "run_s and dedup_lag_s on ingest; dedup_lag_s and write_p99_ms on sfs-db"
	runtimeMoves  = "run_s on read-mostly and sfs-db; peak_rss_MB on ingest"
	explains      = "explains which layer a run_s or p99 change came from"
)

var perLayerSpecs = func() []spec {
	s := []spec{
		{name: "workload.gen_s", unit: "s", better: "lower", host: true, layer: "workload", moves: runIngestSFS},
		{name: "workload.gen_MB", unit: "MB", better: "lower", layer: "workload", moves: runIngestSFS},
		{name: "sim.events", unit: "count", better: "lower", layer: "sim", moves: runReadMostly},
		{name: "sim.events_per_op", unit: "count", better: "lower", layer: "sim", moves: runReadMostly},
		{name: "sim.fastpath_frac", unit: "ratio", better: "higher", layer: "sim", moves: runReadMostly},
		{name: "sim.procs_spawned", unit: "count", better: "lower", layer: "sim", moves: runReadMostly},
		{name: "sim.procs_reused", unit: "count", better: "higher", layer: "sim", moves: runReadMostly},
	}
	for _, k := range radosKinds {
		s = append(s, spec{name: "rados.ops." + k, unit: "count", better: "lower", layer: "rados", moves: radosMoves})
	}
	s = append(s, spec{name: "rados.ops_per_client_op", unit: "count", better: "lower", layer: "rados", moves: radosMoves})
	for _, c := range qosClasses {
		s = append(s,
			spec{name: "qos." + c + ".wait_p50_ms", unit: "ms", better: "lower", layer: "qos", moves: radosMoves},
			spec{name: "qos." + c + ".wait_p99_ms", unit: "ms", better: "lower", layer: "qos", moves: radosMoves},
			spec{name: "qos." + c + ".throttled", unit: "count", better: "lower", layer: "qos", moves: radosMoves})
	}
	for _, k := range resourceKinds {
		s = append(s,
			spec{name: k + ".busy_frac", unit: "ratio", better: "lower", layer: "rados", moves: radosMoves},
			spec{name: k + ".avg_queue", unit: "count", better: "lower", layer: "rados", moves: radosMoves})
	}
	s = append(s,
		spec{name: "pglock.avg_queue", unit: "count", better: "lower", layer: "rados", moves: radosMoves},
		spec{name: "core.drain_s", unit: "s", better: "lower", host: true, layer: "core", moves: coreMoves},
		spec{name: "core.verify_s", unit: "s", better: "lower", host: true, layer: "core", moves: coreMoves},
		spec{name: "core.gc_s", unit: "s", better: "lower", host: true, layer: "core", moves: coreMoves},
		spec{name: "core.scrub_s", unit: "s", better: "lower", host: true, layer: "core", moves: coreMoves},
		spec{name: "core.chunks_flushed", unit: "count", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "core.dup_chunks", unit: "count", better: "higher", layer: "core", moves: coreMoves},
		spec{name: "core.noop_flushes", unit: "count", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "core.requeued", unit: "count", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "core.skipped_hot", unit: "count", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "core.dup_frac", unit: "ratio", better: "higher", layer: "core", moves: coreMoves},
		spec{name: "core.flush_waste_frac", unit: "ratio", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "core.gc_chunks_scanned", unit: "count", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "core.gc_reclaimed_MB", unit: "MB", better: "higher", layer: "core", moves: coreMoves},
		spec{name: "core.scrub_MB", unit: "MB", better: "lower", layer: "core", moves: coreMoves},
		spec{name: "runtime.alloc_MB", unit: "MB", better: "lower", host: true, layer: "runtime", moves: runtimeMoves},
		spec{name: "runtime.allocs_per_op", unit: "count", better: "lower", host: true, layer: "runtime", moves: runtimeMoves},
		spec{name: "runtime.gc_cycles", unit: "count", better: "lower", host: true, layer: "runtime", moves: runtimeMoves},
		spec{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", host: true, layer: "runtime", moves: runtimeMoves},
		spec{name: "client.failed_frac", unit: "ratio", better: "lower", layer: "client", moves: "failed ops; the result's failed/attempted on every workload"},
	)
	for _, l := range cpuLayers {
		s = append(s, spec{name: l + ".cpu_frac", unit: "ratio", better: "lower", layer: l, moves: explains})
	}
	s = append(s, spec{name: "core.redirect_read_frac", unit: "ratio", better: "lower", layer: "core", moves: explains})
	for _, op := range []string{"read", "write"} {
		for _, part := range []string{"queue", "pglock", "disk", "net", "cpu"} {
			s = append(s, spec{name: op + "." + part + "_ms", unit: "ms", better: "lower", layer: "all", moves: explains})
		}
	}
	s = append(s,
		spec{name: "trace.spans_lost", unit: "count", better: "lower", layer: "metrics", moves: explains},
		spec{name: "trace.overhead_frac", unit: "ratio", better: "lower", host: true, layer: "metrics", moves: explains})
	return s
}()

func lookupSpec(name string) (spec, bool) {
	for _, list := range [][]spec{endToEndSpecs, perLayerSpecs} {
		for _, s := range list {
			if s.name == name {
				return s, true
			}
		}
	}
	return spec{}, false
}

func specUnit(name string) string {
	s, _ := lookupSpec(name)
	return s.unit
}

func hostLayerMetric(name string) bool {
	s, _ := lookupSpec(name)
	return s.host
}

package main

import (
	"runtime"
	"time"

	"dedupstore/internal/core"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

// radosKinds are the gateway op kinds the cluster counts in its registry
// as rados_op_total:rados.<kind>.
var radosKinds = []string{"read", "write", "writefull", "mutate", "delete"}

// qosClasses are the QoS classes whose queueing the measured phases load:
// foreground client I/O and the background dedup engine it competes with.
var qosClasses = []string{"client", "dedup"}

// resourceKinds are the resource families reported per layer; PG locks are
// not watched by the cluster's resource monitor and come from traced runs.
var resourceKinds = []string{"disk", "nic", "cpu"}

// resArea is one resource family's integrals up to a snapshot.
type resArea struct {
	n     int     // resources in the family
	busy  float64 // Σ utilization·t over the family, in ns
	queue float64 // Σ queue length·t (resource monitor plus QoS fair queues), in ns
}

// counters is a snapshot of every cumulative counter the layers expose
// through public accessors. Per-layer metrics are deltas of two snapshots
// taken around the measured phase, with the engine paused.
type counters struct {
	now      sim.Time
	sim      sim.Stats
	eng      core.EngineStats
	radosOps map[string]int64
	qos      map[string]qos.ClassTotals
	qwait    map[string][]metrics.Bucket
	res      map[string]resArea
	mem      runtime.MemStats
}

func snapshot(w *world) *counters {
	c := &counters{
		now:      w.eng.Now(),
		sim:      w.eng.Stats(),
		eng:      w.s.Engine().Stats(),
		radosOps: map[string]int64{},
		qos:      map[string]qos.ClassTotals{},
		qwait:    map[string][]metrics.Bucket{},
		res:      map[string]resArea{},
	}
	reg := w.c.Metrics()
	for _, k := range radosKinds {
		c.radosOps[k] = reg.Counter("rados_op_total:rados." + k).Value()
	}
	for _, t := range w.c.QoS().Totals() {
		c.qos[t.Class] = t
	}
	for _, cls := range qosClasses {
		c.qwait[cls] = reg.Histogram("qos_queue_wait:" + cls).Buckets()
	}
	t := float64(c.now)
	for _, u := range w.c.Resources().Snapshot(c.now) {
		k := resourceKind(u.Name)
		a := c.res[k]
		a.n++
		a.busy += u.Utilization * t
		a.queue += u.AvgQueue * t
		c.res[k] = a
	}
	for _, s := range w.c.QoS().Schedulers() {
		k := resourceKind(s.Resource().Name())
		a := c.res[k]
		for _, ct := range s.Snapshot() {
			a.queue += float64(ct.QueueWait)
		}
		c.res[k] = a
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// layerDeltas turns two snapshots into per-layer metrics. clientOps is the
// number of client ops the phase issued.
func layerDeltas(a, b *counters, clientOps int64) map[string]float64 {
	m := map[string]float64{}
	ops := float64(clientOps)
	elapsed := float64(b.now - a.now)

	ev := float64(b.sim.EventsDispatched - a.sim.EventsDispatched)
	m["sim.events"] = ev
	m["sim.events_per_op"] = ratio(ev, ops)
	m["sim.fastpath_frac"] = ratio(float64(b.sim.FastPath-a.sim.FastPath), ev)
	m["sim.procs_spawned"] = float64(b.sim.ProcsSpawned - a.sim.ProcsSpawned)
	m["sim.procs_reused"] = float64(b.sim.ProcsReused - a.sim.ProcsReused)

	var radosTotal float64
	for _, k := range radosKinds {
		d := float64(b.radosOps[k] - a.radosOps[k])
		m["rados.ops."+k] = d
		radosTotal += d
	}
	m["rados.ops_per_client_op"] = ratio(radosTotal, ops)

	for _, cls := range qosClasses {
		waits := bucketDelta(a.qwait[cls], b.qwait[cls])
		m["qos."+cls+".wait_p50_ms"] = ms(bucketPercentile(waits, 50))
		m["qos."+cls+".wait_p99_ms"] = ms(bucketPercentile(waits, 99))
		m["qos."+cls+".throttled"] = float64(b.qos[cls].Throttled - a.qos[cls].Throttled)
	}

	for _, k := range resourceKinds {
		ra, rb := a.res[k], b.res[k]
		if rb.n == 0 || elapsed <= 0 {
			m[k+".busy_frac"], m[k+".avg_queue"] = 0, 0
			continue
		}
		// Resources created during the phase (none in these workloads) start
		// at zero area, so the family delta stays exact.
		m[k+".busy_frac"] = (rb.busy - ra.busy) / elapsed / float64(rb.n)
		m[k+".avg_queue"] = (rb.queue - ra.queue) / elapsed / float64(rb.n)
	}

	ea, eb := a.eng, b.eng
	flushed := float64(eb.ChunksFlushed - ea.ChunksFlushed)
	m["core.chunks_flushed"] = flushed
	m["core.dup_chunks"] = float64(eb.DupChunks - ea.DupChunks)
	m["core.noop_flushes"] = float64(eb.NoopFlushes - ea.NoopFlushes)
	m["core.requeued"] = float64(eb.Requeued - ea.Requeued)
	m["core.skipped_hot"] = float64(eb.SkippedHot - ea.SkippedHot)
	m["core.dup_frac"] = ratio(m["core.dup_chunks"], flushed)
	m["core.flush_waste_frac"] = ratio(m["core.requeued"]+m["core.noop_flushes"], float64(eb.ObjectsScanned-ea.ObjectsScanned))

	m["runtime.alloc_MB"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1e6
	m["runtime.allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops)
	m["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	return m
}

// bucketDelta subtracts histogram bucket counts (both sorted by bound).
func bucketDelta(before, after []metrics.Bucket) []metrics.Bucket {
	prev := make(map[time.Duration]int64, len(before))
	for _, bk := range before {
		prev[bk.Le] = bk.Count
	}
	var out []metrics.Bucket
	for _, bk := range after {
		if n := bk.Count - prev[bk.Le]; n > 0 {
			out = append(out, metrics.Bucket{Le: bk.Le, Count: n})
		}
	}
	return out
}

// bucketPercentile is the nearest-rank percentile over histogram buckets,
// reported at the bucket's upper bound (0 when empty).
func bucketPercentile(bks []metrics.Bucket, p float64) time.Duration {
	var n int64
	for _, bk := range bks {
		n += bk.Count
	}
	if n == 0 {
		return 0
	}
	r := rank(p, int(n))
	var cum int64
	for _, bk := range bks {
		cum += bk.Count
		if cum >= int64(r) {
			return bk.Le
		}
	}
	return bks[len(bks)-1].Le
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

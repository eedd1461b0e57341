package main

import (
	"strings"
	"time"

	"dedupstore/internal/metrics"
)

// spanRing is the capacity of the cluster trace sink's span ring.
const spanRing = 4096

// opDecomp sums one client op kind's simulated-time decomposition over the
// resources its span (and every span nested under it) touched.
type opDecomp struct {
	n                             int64
	queue, pglock, disk, net, cpu time.Duration
}

// spanAgg folds every span a traced trial records, read from the cluster
// sink's ring after each simulated-time slice.
type spanAgg struct {
	seen int64 // sink total at the last collect
	lost int64 // spans that left the ring before they were read

	ops map[string]*opDecomp // "read"/"write" from rbd.read/rbd.write

	clientReads   int64 // client-class rados.read spans
	redirectReads int64 // ... of which read the chunk pool (§4.5 redirection)

	pgWait time.Duration // PG-lock queueing summed over root spans

	elapsed time.Duration // simulated length of the traced phase
}

func newSpanAgg() *spanAgg {
	return &spanAgg{ops: map[string]*opDecomp{"read": {}, "write": {}}}
}

// collect reads the spans recorded since the previous call.
func (a *spanAgg) collect(sink *metrics.TraceSink) {
	total := sink.Total()
	n := total - a.seen
	a.seen = total
	if n <= 0 {
		return
	}
	if n > spanRing {
		a.lost += n - spanRing
		n = spanRing
	}
	for _, sp := range sink.Recent(int(n)) {
		a.add(&sp)
	}
}

func (a *spanAgg) add(sp *metrics.Span) {
	switch sp.Name {
	case "rbd.read", "rbd.write":
		d := a.ops[strings.TrimPrefix(sp.Name, "rbd.")]
		d.n++
		for _, r := range sp.Resources {
			switch resourceKind(r.Resource) {
			case "disk":
				d.queue += r.Wait
				d.disk += r.Hold
			case "nic":
				d.queue += r.Wait
				d.net += r.Hold
			case "cpu":
				d.queue += r.Wait
				d.cpu += r.Hold
			case "pglock":
				d.pglock += r.Wait
			}
		}
	case "rados.read":
		if sp.Class == "client" {
			a.clientReads++
			if sp.Pool == "chunk" {
				a.redirectReads++
			}
		}
	}
	if sp.Parent == 0 {
		for _, r := range sp.Resources {
			if resourceKind(r.Resource) == "pglock" {
				a.pgWait += r.Wait
			}
		}
	}
}

// resourceKind maps a sim resource name to the layer resource it models.
func resourceKind(name string) string {
	switch {
	case strings.HasPrefix(name, "disk."):
		return "disk"
	case strings.HasPrefix(name, "nic."):
		return "nic"
	case strings.HasPrefix(name, "cpu."):
		return "cpu"
	case strings.HasPrefix(name, "pg."):
		return "pglock"
	}
	return ""
}

// metrics reports the traced phase's per-layer metrics: the redirect share
// of client chunk reads, each client op's mean simulated-time
// decomposition, PG-lock queue length and spans missed.
func (a *spanAgg) metrics() map[string]float64 {
	m := map[string]float64{
		"core.redirect_read_frac": ratio(float64(a.redirectReads), float64(a.clientReads)),
		"pglock.avg_queue":        ratio(float64(a.pgWait), float64(a.elapsed)),
		"trace.spans_lost":        float64(a.lost),
	}
	for op, d := range a.ops {
		n := float64(d.n)
		m[op+".queue_ms"] = ratio(ms(d.queue), n)
		m[op+".pglock_ms"] = ratio(ms(d.pglock), n)
		m[op+".disk_ms"] = ratio(ms(d.disk), n)
		m[op+".net_ms"] = ratio(ms(d.net), n)
		m[op+".cpu_ms"] = ratio(ms(d.cpu), n)
	}
	return m
}

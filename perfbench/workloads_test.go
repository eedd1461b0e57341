package main

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"dedupstore/internal/core"
	"dedupstore/internal/sim"
)

// simSide collects a trial's deterministic results: the simulated-time
// end-to-end metrics and every per-layer metric that is not host time.
func simSide(t *trial) map[string]float64 {
	out := map[string]float64{}
	for k, v := range t.sim {
		out[k] = v
	}
	for k, v := range t.layer {
		if !hostLayerMetric(k) {
			out["layer:"+k] = v
		}
	}
	return out
}

func tinyTrial(t *testing.T, wl workloadDef, seed int64, traced bool) *trial {
	t.Helper()
	tr, err := runTrial(wl.new(seed, true), seed, traced)
	if err != nil {
		t.Fatalf("%s seed %d: %v", wl.name, seed, err)
	}
	return tr
}

// Each tiny workload passes its correctness gates (runTrial fails
// otherwise), reproduces its simulated-side results exactly for a seed,
// and changes them for another seed.
func TestWorkloadsDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, b := tinyTrial(t, wl, 11, false), tinyTrial(t, wl, 11, false)
			c := tinyTrial(t, wl, 12, false)
			sa, sb, sc := simSide(a), simSide(b), simSide(c)
			for k, v := range sa {
				if sb[k] != v {
					t.Errorf("seed 11 twice: %s = %v then %v", k, v, sb[k])
				}
			}
			changed := 0
			for k, v := range sa {
				if sc[k] != v {
					changed++
				}
			}
			if changed == 0 {
				t.Errorf("seeds 11 and 12 gave identical simulated-side results")
			}
			if a.ph.attempted == 0 || a.ph.failed != 0 {
				t.Errorf("attempted %d ops, %d failed", a.ph.attempted, a.ph.failed)
			}
			if a.ph.reads.count() == 0 || a.ph.writes.count() == 0 {
				t.Errorf("%d reads, %d writes recorded", a.ph.reads.count(), a.ph.writes.count())
			}
		})
	}
}

// A traced trial runs the same simulation as an untraced one and reports
// CPU shares that sum to 1.
func TestTracedTrialMatchesUntraced(t *testing.T) {
	wl, _ := lookupWorkload("read-mostly")
	plain, traced := tinyTrial(t, wl, 5, false), tinyTrial(t, wl, 5, true)
	for k, v := range plain.sim {
		if traced.sim[k] != v {
			t.Errorf("tracing changed %s: %v -> %v", k, v, traced.sim[k])
		}
	}
	sum := 0.0
	for _, v := range traced.cpu.shares() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	m := traced.spans.metrics()
	if m["trace.spans_lost"] != 0 {
		t.Errorf("%v spans lost", m["trace.spans_lost"])
	}
	if f := m["core.redirect_read_frac"]; f <= 0 || f >= 1 {
		t.Errorf("redirect share %v, want cold reads redirected and hot reads cached", f)
	}
	if m["read.disk_ms"] <= 0 || m["write.disk_ms"] <= 0 {
		t.Errorf("empty latency decomposition: %v", m)
	}
}

// A run reports exactly the metrics the spec table lists, each with its
// unit.
func TestReportedMetricsMatchSpecs(t *testing.T) {
	wl, _ := lookupWorkload("sfs-db")
	res := &result{}
	for i, traced := range []bool{false, true} {
		if err := res.add(tinyTrial(t, wl, int64(3), traced), false); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	check := func(kind string, got map[string]metric, specs []spec) {
		if len(got) != len(specs) {
			t.Errorf("%s: %d metrics reported, %d specified", kind, len(got), len(specs))
		}
		for _, s := range specs {
			m, ok := got[s.name]
			if !ok {
				t.Errorf("%s: %s not reported", kind, s.name)
				continue
			}
			if m.Unit != s.unit {
				t.Errorf("%s: %s unit %q, want %q", kind, s.name, m.Unit, s.unit)
			}
		}
	}
	check("end-to-end", res.endToEnd(), endToEndSpecs)
	check("per-layer", res.perLayer(), perLayerSpecs)
}

// The post-run gates fail a store that needs repair: one chunk's refcount
// is bumped after a clean tiny ingest, and Audit's fix of it must fail the
// check rather than pass silently.
func TestGatesCatchRefcountDrift(t *testing.T) {
	wl, _ := lookupWorkload("ingest")
	d := wl.new(3, true)
	w, err := newWorld(3, d.devSize(), false)
	if err != nil {
		t.Fatal(err)
	}
	err = w.run(func(p *sim.Proc) error {
		if err := d.setup(w, p); err != nil {
			return err
		}
		if err := d.measure(w, p, newPhase()); err != nil {
			return err
		}
		pool := w.s.ChunkPool()
		oid := w.c.ListObjects(pool)[0]
		gw := w.c.NewGateway("perfbench.test")
		rc, err := gw.GetXattr(p, pool, oid, core.XattrRefCount)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(rc, binary.LittleEndian.Uint64(rc)+1)
		if err := gw.SetXattr(p, pool, oid, core.XattrRefCount, rc); err != nil {
			return err
		}
		return w.checkInvariants(p)
	})
	if err == nil || !strings.Contains(err.Error(), "fixed 1 refcounts") {
		t.Fatalf("gates after a refcount bump returned %v, want an audit refcount fix", err)
	}
}

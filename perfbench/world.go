package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// world is one trial's simulated testbed: the paper's 4 hosts × 4 OSDs, a
// dedup store in its default configuration (32 KiB static chunks, rep×2
// pools, post-processing with watermark rate control) and one block device
// over it.
type world struct {
	eng *sim.Engine
	c   *rados.Cluster
	s   *core.Store
	dev *client.BlockDevice

	// gen accumulates host time spent inside generator calls.
	gen genClock
	// spans, while non-nil, receives every trace span (traced trials only).
	spans *spanAgg
}

// untracedSample makes the cluster's trace sink keep only the first span,
// which switches tracing off without changing any simulated behaviour
// (spans add no virtual time).
const untracedSample = math.MaxInt32

func newWorld(seed, devSize int64, traced bool) (*world, error) {
	eng := sim.New(seed)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	s, err := core.Open(c, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	dev, err := client.NewBlockDevice("img", devSize, 1<<20, &client.DedupBackend{Client: s.Client("client.img")})
	if err != nil {
		return nil, err
	}
	w := &world{eng: eng, c: c, s: s, dev: dev}
	if traced {
		c.Trace().SetSample(1)
		dev.SetTrace(c.Trace())
	} else {
		c.Trace().SetSample(untracedSample)
	}
	return w, nil
}

// errStalled reports a simulation that ran out of events before the
// benchmark's process finished (a deadlock in the model).
var errStalled = errors.New("perfbench: simulation stalled before the workload process finished")

// traceSlice is how often, in simulated time, a traced world reads the
// cluster's span ring. The ring holds the most recent 4096 spans, so a
// slice must record fewer than that (spanAgg counts any it missed).
const traceSlice = 200 * time.Microsecond

// startTracing begins collecting spans into a fresh spanAgg. A daemon
// process reads the ring every traceSlice; it only reads, so the model
// runs exactly as it would untraced, and as a daemon it does not keep the
// simulation alive.
func (w *world) startTracing() {
	agg := newSpanAgg()
	agg.seen = w.c.Trace().Total()
	w.spans = agg
	w.eng.GoDaemon("perfbench.trace", func(p *sim.Proc) {
		for w.spans == agg {
			p.Sleep(traceSlice)
			agg.collect(w.c.Trace())
		}
	})
}

// stopTracing collects the spans recorded since the daemon's last read and
// detaches the aggregate.
func (w *world) stopTracing() *spanAgg {
	agg := w.spans
	agg.collect(w.c.Trace())
	w.spans = nil
	return agg
}

// run executes fn as a foreground sim process to completion.
func (w *world) run(fn func(p *sim.Proc) error) error {
	var err error
	done := false
	w.eng.Go("perfbench", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	w.eng.Run()
	if !done {
		return errStalled
	}
	return err
}

// drainLag drains the dedup engine and returns the simulated time it took.
func (w *world) drainLag(p *sim.Proc) time.Duration {
	t0 := p.Now()
	w.s.Engine().DrainAndWait(p)
	return (p.Now() - t0).Duration()
}

// spaceAmp is raw bytes stored across the meta and chunk pools (every
// replica plus metadata) per logical byte of the device.
func (w *world) spaceAmp() float64 {
	raw := w.c.PoolStats(w.s.MetaPool()).StoredTotal() + w.c.PoolStats(w.s.ChunkPool()).StoredTotal()
	return float64(raw) / float64(w.dev.Size())
}

// gateReport is the outcome of the invariant checks. A clean store needs
// no repair: Audit fixes what it finds, so its repairs count as failures
// too, as do GC's refcount fixes and malformed keys on either pass.
type gateReport struct {
	audit         core.AuditStats
	scrubIssues   int
	staleRefs     int64 // second GC pass
	gcCountsFixed int64 // both GC passes
	gcBadRefKeys  int64 // both GC passes
}

func (g gateReport) err() error {
	a := g.audit
	if !a.Clean() || g.scrubIssues != 0 || g.staleRefs != 0 || g.gcCountsFixed != 0 || g.gcBadRefKeys != 0 {
		return fmt.Errorf("invariants violated: audit found %d lost chunks, repaired %d refs, fixed %d refcounts, promoted %d intents; "+
			"%d scrub issues; GC fixed %d refcounts, removed %d bad ref keys, found %d stale refs on its second pass",
			a.LostChunks, a.RefsRepaired, a.CountsFixed, a.IntentsPromoted,
			g.scrubIssues, g.gcCountsFixed, g.gcBadRefKeys, g.staleRefs)
	}
	return nil
}

// checkInvariants is the post-mortem every workload ends with, after its
// final drain: let reference-intent leases expire, then Audit, Scrub and GC
// twice, none of which may find anything to repair or report. Its work is
// not recorded in any phase.
func (w *world) checkInvariants(p *sim.Proc) error {
	p.Sleep(w.s.Config().IntentLease + time.Second)
	au, err := w.s.Audit(p)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	g, err := newPhase().scrubAndGC(w, p)
	if err != nil {
		return err
	}
	g.audit = au
	return g.err()
}

// genClock sums the host time of generator calls. Generators never yield
// to the DES, so the time between entry and return is exactly the
// generator's own work.
type genClock struct {
	d     time.Duration
	bytes int64
}

func (g *genClock) block(fn func() []byte) []byte {
	t0 := time.Now()
	b := fn()
	g.d += time.Since(t0)
	g.bytes += int64(len(b))
	return b
}

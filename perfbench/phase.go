package main

import (
	"fmt"
	"time"

	"dedupstore/internal/sim"
)

// phase collects what one trial's measured phase reports.
type phase struct {
	reads, writes latencies

	attempted, failed int64 // client ops issued / returned an error

	// Foreground throughput: ops and bytes completed over window, the
	// simulated time the foreground load ran.
	tputOps, tputBytes int64
	window             time.Duration

	lag time.Duration // simulated time of the final drain

	host map[string]time.Duration // host CPU time of named sub-phases

	gcScanned, gcReclaimed, scrubBytes int64
}

func newPhase() *phase { return &phase{host: map[string]time.Duration{}} }

// timed runs fn and adds its host CPU time to the named sub-phase.
func (ph *phase) timed(name string, fn func() error) error {
	t0 := cpuTime()
	err := fn()
	ph.host[name] += cpuTime() - t0
	return err
}

// record books one client op's outcome. A failed op counts against
// failed_frac only. A successful one adds its latency to l, unless l is nil
// (a warm-up op), and its bytes, if any, to the foreground throughput.
func (ph *phase) record(l *latencies, lat time.Duration, bytes int64, err error) {
	ph.attempted++
	if err != nil {
		ph.failed++
		return
	}
	if l == nil {
		return
	}
	l.add(lat)
	if bytes > 0 {
		ph.tputOps++
		ph.tputBytes += bytes
	}
}

// closedLoop runs n sim clients; each calls step until it returns false.
// A client issues its next op only after the previous one completed.
func closedLoop(p *sim.Proc, n int, name string, step func(q *sim.Proc) bool) {
	sigs := make([]*sim.Signal, 0, n)
	for i := 0; i < n; i++ {
		sigs = append(sigs, p.Go(fmt.Sprintf("%s.%d", name, i), func(q *sim.Proc) {
			for step(q) {
			}
		}))
	}
	sim.WaitAll(p, sigs...)
}

// scrubAndGC scrubs the store and runs GC twice, recording their host time
// and work as the core layer's scrub and GC metrics. It reports what the
// passes found, which gateReport.err checks.
func (ph *phase) scrubAndGC(w *world, p *sim.Proc) (g gateReport, err error) {
	err = ph.timed("core.scrub_s", func() error {
		rep, err := w.s.Scrub(p)
		ph.scrubBytes += rep.BytesVerified
		g.scrubIssues = len(rep.Issues)
		return err
	})
	if err != nil {
		return g, fmt.Errorf("scrub: %w", err)
	}
	for i := 0; i < 2; i++ {
		err = ph.timed("core.gc_s", func() error {
			st, err := w.s.GC(p)
			ph.gcScanned += st.ChunksScanned
			ph.gcReclaimed += st.BytesReclaimed
			g.gcCountsFixed += st.CountsFixed
			g.gcBadRefKeys += st.BadRefKeys
			g.staleRefs = st.StaleRefs
			return err
		})
		if err != nil {
			return g, fmt.Errorf("gc: %w", err)
		}
	}
	return g, nil
}

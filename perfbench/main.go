package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"dedupstore/internal/sim"
)

// scenario is one workload: its device, its untimed set-up, its measured
// phase and its untimed content check.
type scenario interface {
	devSize() int64
	setup(w *world, p *sim.Proc) error
	measure(w *world, p *sim.Proc, ph *phase) error
	verify(w *world, p *sim.Proc) error
}

// workloadDef names a workload and builds its scenario for a seed; tiny
// selects the small configuration the tests use.
type workloadDef struct {
	name string
	new  func(seed int64, tiny bool) scenario
}

var workloads = []workloadDef{
	{"ingest", newIngest},
	{"read-mostly", newReadMostly},
	{"sfs-db", newSFSDB},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ingest, read-mostly or sfs-db")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 30, "wall-clock seconds to keep repeating trials for")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	// The simulation is one sequential process, so one P runs all of it.
	// With more, the scheduler spins idle Ps on other cores, and that CPU
	// time would count in setup_s and run_s.
	runtime.GOMAXPROCS(1)
	res, err := runTrials(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	if err != nil {
		return err
	}
	return res.print(out, wl.name, *trace == 1)
}

// minTrials is the fewest trials a run makes, whatever --seconds says.
const minTrials = 3

// runTrials repeats fresh trials of one workload and seed until budget has
// passed. In a traced run, trials alternate untraced and traced, so the
// tracing overhead compares like with like.
func runTrials(wl workloadDef, seed int64, budget time.Duration, traced, tiny bool) (*result, error) {
	res := &result{}
	start := time.Now()
	for i := 0; i < minTrials || time.Since(start) < budget; i++ {
		tr := traced && i%2 == 1
		t, err := runTrial(wl.new(seed, tiny), seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trial %d: %w", wl.name, seed, i+1, err)
		}
		if err := res.add(t, !tiny); err != nil {
			return nil, fmt.Errorf("%s seed %d trial %d: %w", wl.name, seed, i+1, err)
		}
	}
	return res, nil
}

// trial is one fresh testbed's results.
type trial struct {
	traced bool
	setup  time.Duration // host CPU time of testbed build and set-up phase
	run    time.Duration // host CPU time of the measured phase
	// peakRSS is the process's peak resident set (MB) during the trial.
	peakRSS float64
	ph      *phase
	layer   map[string]float64
	sim     map[string]float64 // deterministic simulated-side metrics

	// Traced trials only: CPU profile weight per layer and the spans.
	cpu   layerWeights
	spans *spanAgg
}

func runTrial(d scenario, seed int64, traced bool) (*trial, error) {
	// Start each trial from a collected heap returned to the OS, and restart
	// the peak-RSS mark, so one trial's garbage does not inflate the next.
	debug.FreeOSMemory()
	resetPeakRSS()
	t := &trial{traced: traced, ph: newPhase()}
	t0 := cpuTime()
	w, err := newWorld(seed, d.devSize(), traced)
	if err != nil {
		return nil, err
	}
	if err := w.run(func(p *sim.Proc) error { return d.setup(w, p) }); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t.setup = cpuTime() - t0

	w.gen = genClock{}
	if traced {
		w.startTracing()
	}
	before := snapshot(w)
	// measure times only the measured phase, so in a traced trial neither
	// stopping the profiler nor decoding the profile counts in run_s.
	measure := func() error {
		t1 := cpuTime()
		err := w.run(func(p *sim.Proc) error { return d.measure(w, p, t.ph) })
		t.run = cpuTime() - t1
		return err
	}
	if traced {
		stacks, weights, err := cpuProfile(measure)
		if err != nil {
			return nil, fmt.Errorf("measured phase: %w", err)
		}
		t.cpu = layerWeights{}
		t.cpu.add(stacks, weights)
		t.spans = w.stopTracing()
	} else if err := measure(); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	after := snapshot(w)
	t.layer = layerDeltas(before, after, t.ph.attempted)
	t.layer["workload.gen_s"] = w.gen.d.Seconds()
	t.layer["workload.gen_MB"] = float64(w.gen.bytes) / 1e6
	if t.spans != nil {
		t.spans.elapsed = (after.now - before.now).Duration()
	}
	t.sim = t.ph.simMetrics(w.spaceAmp())

	// Untimed correctness gates. They record nothing in t.ph, so the
	// per-layer figures cover the measured phase only.
	err = w.run(func(p *sim.Proc) error {
		if err := d.verify(w, p); err != nil {
			return err
		}
		return w.checkInvariants(p)
	})
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	t.peakRSS = peakRSSMB()
	ph := t.ph
	for _, k := range []string{"core.drain_s", "core.verify_s", "core.gc_s", "core.scrub_s"} {
		t.layer[k] = ph.host[k].Seconds()
	}
	t.layer["core.gc_chunks_scanned"] = float64(ph.gcScanned)
	t.layer["core.gc_reclaimed_MB"] = float64(ph.gcReclaimed) / 1e6
	t.layer["core.scrub_MB"] = float64(ph.scrubBytes) / 1e6
	t.layer["client.failed_frac"] = ratio(float64(ph.failed), float64(ph.attempted))
	return t, nil
}

// simMetrics are the end-to-end metrics measured in simulated time.
func (ph *phase) simMetrics(spaceAmp float64) map[string]float64 {
	win := ph.window.Seconds()
	return map[string]float64{
		"sim_MBps":     ratio(float64(ph.tputBytes)/1e6, win),
		"sim_iops":     ratio(float64(ph.tputOps), win),
		"write_p50_ms": ms(ph.writes.percentile(50)),
		"write_p99_ms": ms(ph.writes.percentile(99)),
		"read_p50_ms":  ms(ph.reads.percentile(50)),
		"read_p99_ms":  ms(ph.reads.percentile(99)),
		"space_amp":    spaceAmp,
		"dedup_lag_s":  ph.lag.Seconds(),
	}
}

// result accumulates a run's trials.
type result struct {
	trials []*trial
}

// add appends a trial after checking that it reproduced the first trial's
// simulated-side results (same seed, same inputs, so they must match
// exactly) and, for full-size runs, that each p99 rests on enough samples.
func (r *result) add(t *trial, full bool) error {
	if full {
		for _, l := range []struct {
			name string
			n    int
		}{{"write", t.ph.writes.count()}, {"read", t.ph.reads.count()}} {
			if p := highestReportable(l.n); p < 99 {
				return fmt.Errorf("%s p99 needs %d samples beyond it, have %d samples", l.name, minTail, l.n)
			}
		}
	}
	if len(r.trials) > 0 {
		first := r.trials[0]
		for k, v := range first.sim {
			if t.sim[k] != v {
				return fmt.Errorf("nondeterminism: %s = %v, first trial had %v", k, t.sim[k], v)
			}
		}
	}
	r.trials = append(r.trials, t)
	return nil
}

// hostMedian is the median of a host-time quantity over untraced (or
// traced) trials.
func (r *result) hostMedian(traced bool, f func(t *trial) float64) (float64, int) {
	var v []float64
	for _, t := range r.trials {
		if t.traced == traced {
			v = append(v, f(t))
		}
	}
	if len(v) == 0 {
		return 0, 0
	}
	return median(v), len(v)
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

func (r *result) endToEnd() map[string]metric {
	first := r.trials[0]
	m := map[string]metric{}
	setup, n := r.hostMedian(false, func(t *trial) float64 { return t.setup.Seconds() })
	m["setup_s"] = metric{Value: setup, n: n}
	run, n := r.hostMedian(false, func(t *trial) float64 { return t.run.Seconds() })
	m["run_s"] = metric{Value: run, n: n}
	rss, n := r.hostMedian(false, func(t *trial) float64 { return t.peakRSS })
	m["peak_rss_MB"] = metric{Value: rss, n: n}
	for k, v := range first.sim {
		cnt := 1
		switch k {
		case "write_p50_ms", "write_p99_ms":
			cnt = first.ph.writes.count()
		case "read_p50_ms", "read_p99_ms":
			cnt = first.ph.reads.count()
		}
		m[k] = metric{Value: v, n: cnt}
	}
	for k, v := range m {
		v.Unit = specUnit(k)
		m[k] = v
	}
	return m
}

func (r *result) perLayer() map[string]metric {
	m := map[string]metric{}
	var untraced, traced *trial
	for _, t := range r.trials {
		if t.traced && traced == nil {
			traced = t
		}
		if !t.traced && untraced == nil {
			untraced = t
		}
	}
	for k := range untraced.layer {
		if hostLayerMetric(k) {
			v, n := r.hostMedian(false, func(t *trial) float64 { return t.layer[k] })
			m[k] = metric{Value: v, n: n}
		} else {
			m[k] = metric{Value: untraced.layer[k], n: 1}
		}
	}
	if traced != nil {
		cpu := layerWeights{}
		n := 0
		for _, t := range r.trials {
			if t.traced {
				for l, w := range t.cpu {
					cpu[l] += w
				}
				n++
			}
		}
		for l, v := range cpu.shares() {
			m[l+".cpu_frac"] = metric{Value: v, n: n}
		}
		for k, v := range traced.spans.metrics() {
			m[k] = metric{Value: v, n: 1}
		}
		runU, _ := r.hostMedian(false, func(t *trial) float64 { return t.run.Seconds() })
		runT, n := r.hostMedian(true, func(t *trial) float64 { return t.run.Seconds() })
		m["trace.overhead_frac"] = metric{Value: runT/runU - 1, n: n}
	}
	for k, v := range m {
		v.Unit = specUnit(k)
		m[k] = v
	}
	return m
}

// print writes one line per metric, then the result object as the last
// line.
func (r *result) print(out io.Writer, name string, traced bool) error {
	var attempted, failed int64
	for _, t := range r.trials {
		attempted += t.ph.attempted
		failed += t.ph.failed
	}
	metrics := r.endToEnd()
	if traced {
		metrics = r.perLayer()
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "workload %s: %d trials, %d client ops attempted, %d failed (failed_frac %.6g)\n",
		name, len(r.trials), attempted, failed, ratio(float64(failed), float64(attempted)))
	for _, k := range names {
		v := metrics[k]
		fmt.Fprintf(out, "%-28s %14.6g %-8s n=%d", k, v.Value, v.Unit, v.n)
		if s, _ := lookupSpec(k); s.layer != "" {
			fmt.Fprintf(out, "  [%s] should move: %s", s.layer, s.moves)
		}
		fmt.Fprintln(out)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current resident
// set (Linux clear_refs). Where that is unavailable the mark keeps the
// process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is the CPU time, user plus system, the process has used so far.
// Host times are CPU times rather than wall-clock: on a shared host, time
// the CPU spent on other tenants does not count against the benchmark.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

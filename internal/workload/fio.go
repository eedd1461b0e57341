package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// Pattern is a FIO I/O pattern.
type Pattern int

// Supported patterns.
const (
	SeqWrite Pattern = iota + 1
	RandWrite
	SeqRead
	RandRead
)

func (p Pattern) String() string {
	switch p {
	case SeqWrite:
		return "seqwrite"
	case RandWrite:
		return "randwrite"
	case SeqRead:
		return "seqread"
	case RandRead:
		return "randread"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// IsWrite reports whether the pattern issues writes.
func (p Pattern) IsWrite() bool { return p == SeqWrite || p == RandWrite }

// FIOConfig mirrors the fio knobs the paper uses: block size, pattern,
// dedupe_percentage, threads and iodepth (§6.2: "FIO (4 threads, 4
// iodepth)").
type FIOConfig struct {
	Name      string
	BlockSize int64
	Span      int64 // device region the job covers
	Pattern   Pattern
	// DedupPct is fio's dedupe_percentage: the fraction (0..100) of written
	// blocks whose content is drawn from a small pool of repeating blocks.
	DedupPct float64
	Threads  int
	IODepth  int
	// Ops bounds the total operation count (0 = cover the span once).
	Ops  int
	Seed int64
}

func (c *FIOConfig) defaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 8 << 10
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.IODepth <= 0 {
		c.IODepth = 1
	}
	if c.Span <= 0 {
		c.Span = 1 << 20
	}
}

// FIOGen generates block contents with the configured dedup percentage,
// matching fio's dedupe_percentage semantics: exactly DedupPct percent of
// the blocks in each plan batch repeat another block's content, and the
// copies are scattered uniformly across the batch. Duplicate multiplicity is
// 1/(1-p) (2 at 50%, 5 at 80%) with no temporal locality — so copies land on
// unrelated objects and per-OSD local dedup finds almost none of them, the
// Fig. 3 effect.
type FIOGen struct {
	cfg     FIOConfig
	rng     *rand.Rand
	counter int64
	batch   int
	plan    []int64 // content seed per stream position
}

// NewFIOGen creates a generator.
func NewFIOGen(cfg FIOConfig) *FIOGen {
	cfg.defaults()
	// Plan batches sized to the expected stream length so duplicate partners
	// fall inside the written data.
	batch := int(cfg.Span / cfg.BlockSize)
	if cfg.Ops > 0 {
		batch = cfg.Ops
	}
	if batch < 64 {
		batch = 64
	}
	if batch > 1<<17 {
		batch = 1 << 17
	}
	return &FIOGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), batch: batch}
}

// extendPlan appends one batch of seeds: a shuffled mix of unique seeds and
// duplicate references spread evenly over the batch.
func (g *FIOGen) extendPlan() {
	base := int64(len(g.plan))
	n := g.batch
	uniques := int(float64(n) * (1 - g.cfg.DedupPct/100))
	if uniques < 1 {
		uniques = 1
	}
	seeds := make([]int64, 0, n)
	for u := 0; u < uniques; u++ {
		seeds = append(seeds, g.cfg.Seed*7919+base+int64(u))
	}
	for d := uniques; d < n; d++ {
		seeds = append(seeds, seeds[(d-uniques)%uniques]) // round-robin partners
	}
	g.rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	g.plan = append(g.plan, seeds...)
}

// NextBlock returns the content for the next written block.
func (g *FIOGen) NextBlock() []byte {
	for int64(len(g.plan)) <= g.counter {
		g.extendPlan()
	}
	buf := make([]byte, g.cfg.BlockSize)
	FillRandom(buf, g.plan[g.counter])
	g.counter++
	return buf
}

// FIOResult aggregates one FIO run.
type FIOResult struct {
	Config   FIOConfig
	Recorder *metrics.Recorder
	Errors   int
	Elapsed  sim.Time
}

// Throughput returns MB/s over the run.
func (r FIOResult) Throughput() float64 { return r.Recorder.Throughput(r.Elapsed) }

// MeanLatency returns the average op latency.
func (r FIOResult) MeanLatency() time.Duration { return r.Recorder.Lat.Mean() }

// RunFIO replays the workload against a block device from within proc p,
// spawning Threads×IODepth concurrent issuers, and returns aggregate
// metrics. Offsets are 0-based within [0, Span).
func RunFIO(p *sim.Proc, dev *client.BlockDevice, cfg FIOConfig) FIOResult {
	cfg.defaults()
	gen := NewFIOGen(cfg)
	rec := metrics.NewRecorder()
	res := FIOResult{Config: cfg, Recorder: rec}

	blocks := cfg.Span / cfg.BlockSize
	if blocks < 1 {
		blocks = 1
	}
	totalOps := cfg.Ops
	if totalOps <= 0 {
		totalOps = int(blocks)
	}
	issued := 0
	seqCursor := int64(0)
	offRng := rand.New(rand.NewSource(cfg.Seed + 1))
	start := p.Now()

	nextOff := func() (int64, bool) {
		if issued >= totalOps {
			return 0, false
		}
		issued++
		switch cfg.Pattern {
		case SeqWrite, SeqRead:
			off := (seqCursor % blocks) * cfg.BlockSize
			seqCursor++
			return off, true
		default:
			return offRng.Int63n(blocks) * cfg.BlockSize, true
		}
	}

	var sigs []*sim.Signal
	for w := 0; w < cfg.Threads*cfg.IODepth; w++ {
		sigs = append(sigs, p.Go(fmt.Sprintf("fio.%s.%d", cfg.Pattern, w), func(q *sim.Proc) {
			for {
				off, ok := nextOff()
				if !ok {
					return
				}
				opStart := q.Now()
				var err error
				var n int
				if cfg.Pattern.IsWrite() {
					data := gen.NextBlock()
					n = len(data)
					err = dev.WriteAt(q, off, data)
				} else {
					var data []byte
					data, err = dev.ReadAt(q, off, cfg.BlockSize)
					n = len(data)
				}
				if err != nil {
					res.Errors++
					continue
				}
				rec.Record(q.Now(), (q.Now() - opStart).Duration(), n)
			}
		}))
	}
	sim.WaitAll(p, sigs...)
	res.Elapsed = p.Now() - start
	return res
}

// Prefill writes the whole span sequentially (large blocks) so that read
// patterns have data to read. Content uses the same dedup percentage.
func Prefill(p *sim.Proc, dev *client.BlockDevice, cfg FIOConfig) error {
	cfg.defaults()
	fill := cfg
	fill.Pattern = SeqWrite
	fill.Ops = 0
	res := RunFIO(p, dev, fill)
	if res.Errors > 0 {
		return fmt.Errorf("workload: prefill had %d errors", res.Errors)
	}
	return nil
}

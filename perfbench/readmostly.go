package main

import (
	"fmt"
	"math/rand"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// readMostly: 16 sim clients issue 8 KiB ops, 90% reads and 10% writes,
// at Zipf-skewed offsets over a volume that setup preloaded, drained,
// cooled and evicted. Cold reads redirect through the chunk pool; recently
// written hot objects stay cached.
type readMostly struct {
	seed         int64
	volume       int64
	preloadBlock int64
	page         int64
	ops          int // measured ops
	warmup       int // ops issued first and not recorded
	clients      int
	readPct      float64
	zipfS, zipfV float64 // P(rank k) ∝ (zipfV+k)^-zipfS

	want *shadow
}

func newReadMostly(seed int64, tiny bool) scenario {
	d := &readMostly{seed: seed, volume: 64 << 20, preloadBlock: 256 << 10, page: 8 << 10,
		ops: 48000, warmup: 8000, clients: 16, readPct: 90, zipfS: 1.1, zipfV: 16}
	if tiny {
		d.volume, d.ops, d.warmup = 4<<20, 400, 100
	}
	return d
}

func (d *readMostly) devSize() int64 { return d.volume }

// cooldown is how long setup idles after the drain so every object goes
// cold in the cache manager's hit sets (8 one-second slices).
const cooldown = 12 * time.Second

func (d *readMostly) setup(w *world, p *sim.Proc) error {
	d.want = newShadow(d.volume, d.page)
	blocks := int(d.volume / d.preloadBlock)
	gen := workload.NewFIOGen(workload.FIOConfig{
		Name: "preload", BlockSize: d.preloadBlock, Span: d.volume, Pattern: workload.SeqWrite,
		DedupPct: 50, Ops: blocks, Seed: d.seed,
	})
	if err := preload(w, p, d.want, d.clients, blocks, d.preloadBlock, gen.NextBlock); err != nil {
		return err
	}
	w.s.Engine().DrainAndWait(p)
	p.Sleep(cooldown)
	w.s.Engine().EvictCold(p)
	w.s.StartEngine()
	return nil
}

func (d *readMostly) measure(w *world, p *sim.Proc, ph *phase) error {
	rng := rand.New(rand.NewSource(d.seed*7919 + 17))
	pages := d.volume / d.page
	// Rank r of the Zipf draw maps to page perm[r], so hot pages spread
	// over every object of the volume.
	perm := rng.Perm(int(pages))
	zipf := rand.NewZipf(rng, d.zipfS, d.zipfV, uint64(pages-1))
	wgen := workload.NewFIOGen(workload.FIOConfig{
		Name: "overwrite", BlockSize: d.page, Span: d.volume, Pattern: workload.RandWrite,
		DedupPct: 50, Ops: (d.ops + d.warmup) / 10, Seed: d.seed + 1,
	})
	issued := 0
	var t0 sim.Time
	closedLoop(p, d.clients, "rm.client", func(q *sim.Proc) bool {
		if issued >= d.warmup+d.ops {
			return false
		}
		if issued == d.warmup {
			t0 = q.Now()
		}
		measured := issued >= d.warmup
		issued++
		read := rng.Float64()*100 < d.readPct
		off := int64(perm[zipf.Uint64()]) * d.page
		var l *latencies // nil for warm-up ops
		if measured && read {
			l = &ph.reads
		} else if measured {
			l = &ph.writes
		}
		start := q.Now()
		var err error
		if read {
			_, err = w.dev.ReadAt(q, off, d.page)
		} else {
			data := w.gen.block(wgen.NextBlock)
			d.want.begin(off, d.page)
			err = w.dev.WriteAt(q, off, data)
			d.want.end(off, data, err)
		}
		ph.record(l, (q.Now() - start).Duration(), d.page, err)
		return true
	})
	ph.window = (p.Now() - t0).Duration()
	return ph.timed("core.drain_s", func() error {
		ph.lag = w.drainLag(p)
		return nil
	})
}

func (d *readMostly) verify(w *world, p *sim.Proc) error {
	return d.want.readBack(w, p, d.clients, d.preloadBlock)
}

// preload writes blocks of size bs from next() sequentially over the
// device with n sim clients, recording the content in want. A failed
// write aborts setup: the measured phase needs the whole dataset.
func preload(w *world, p *sim.Proc, want *shadow, n, blocks int, bs int64, next func() []byte) error {
	i, failed := 0, 0
	closedLoop(p, n, "preload", func(q *sim.Proc) bool {
		if i >= blocks {
			return false
		}
		off := int64(i) * bs
		i++
		data := w.gen.block(next)
		want.begin(off, bs)
		err := w.dev.WriteAt(q, off, data)
		want.end(off, data, err)
		if err != nil {
			failed++
		}
		return true
	})
	if failed > 0 {
		return fmt.Errorf("preload: %d of %d writes failed", failed, blocks)
	}
	return nil
}

package main

import (
	"bytes"
	"fmt"

	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// ingest: set-up writes and flushes a base image, as the paper's FIO runs
// prefill before measuring. Then 16 sim issuers (the paper's FIO 4 threads
// × iodepth 4) write fresh chunk-sized blocks past the image at 50%
// dedupe_percentage while the engine flushes under rate control. The
// measured phase then drains, reads every block back against regenerated
// generator output, and runs Scrub and GC twice.
type ingest struct {
	seed          int64
	base          int64 // base image bytes at the start of the device
	blocks        int   // fresh blocks written after the image
	blockSize     int64
	jobs, iodepth int

	want *shadow // base image content
}

func newIngest(seed int64, tiny bool) scenario {
	d := &ingest{seed: seed, base: 32 << 20, blocks: 3072, blockSize: 32 << 10, jobs: 4, iodepth: 4}
	if tiny {
		d.base, d.blocks = 2<<20, 96
	}
	return d
}

func (d *ingest) devSize() int64 { return d.base + int64(d.blocks)*d.blockSize }

const imageBlock = 256 << 10

func (d *ingest) gen() *workload.FIOGen {
	return workload.NewFIOGen(workload.FIOConfig{
		Name: "ingest", BlockSize: d.blockSize, Span: d.devSize() - d.base, Pattern: workload.SeqWrite,
		DedupPct: 50, Threads: 4, IODepth: 4, Ops: d.blocks, Seed: d.seed,
	})
}

func (d *ingest) setup(w *world, p *sim.Proc) error {
	d.want = newShadow(d.base, imageBlock)
	blocks := int(d.base / imageBlock)
	gen := workload.NewFIOGen(workload.FIOConfig{
		Name: "image", BlockSize: imageBlock, Span: d.base, Pattern: workload.SeqWrite,
		DedupPct: 50, Ops: blocks, Seed: d.seed*31 + 5,
	})
	if err := preload(w, p, d.want, d.jobs*d.iodepth, blocks, imageBlock, gen.NextBlock); err != nil {
		return err
	}
	w.s.Engine().DrainAndWait(p)
	w.s.StartEngine()
	return nil
}

func (d *ingest) measure(w *world, p *sim.Proc, ph *phase) error {
	gen := d.gen()
	// fio's layout: each job writes its own quarter of the span
	// sequentially, iodepth issuers sharing the job's cursor. Every block
	// is written once; the seed decides content, and so which blocks
	// deduplicate. order[k] is the block written with the k-th NextBlock.
	per := d.blocks / d.jobs
	order := make([]int, 0, d.blocks)
	written := make([]bool, d.blocks)
	t0 := p.Now()
	var sigs []*sim.Signal
	for j := 0; j < d.jobs; j++ {
		next := 0
		for k := 0; k < d.iodepth; k++ {
			sigs = append(sigs, p.Go(fmt.Sprintf("ingest.job%d.%d", j, k), func(q *sim.Proc) {
				for next < per {
					b := j*per + next
					next++
					order = append(order, b)
					data := w.gen.block(gen.NextBlock)
					start := q.Now()
					err := w.dev.WriteAt(q, d.base+int64(b)*d.blockSize, data)
					ph.record(&ph.writes, (q.Now() - start).Duration(), int64(len(data)), err)
					written[b] = err == nil
				}
			}))
		}
	}
	sim.WaitAll(p, sigs...)
	ph.window = (p.Now() - t0).Duration()

	_ = ph.timed("core.drain_s", func() error {
		ph.lag = w.drainLag(p)
		return nil
	})

	// Read-back in write order: block order[k] holds the k-th NextBlock of
	// a fresh generator.
	check := d.gen()
	mismatch := 0
	next := 0
	_ = ph.timed("core.verify_s", func() error {
		closedLoop(p, d.jobs*d.iodepth, "ingest.read", func(q *sim.Proc) bool {
			if next >= d.blocks {
				return false
			}
			i := order[next]
			next++
			want := w.gen.block(check.NextBlock)
			start := q.Now()
			got, err := w.dev.ReadAt(q, d.base+int64(i)*d.blockSize, d.blockSize)
			// Read-back bytes are not foreground throughput.
			ph.record(&ph.reads, (q.Now() - start).Duration(), 0, err)
			if err == nil && written[i] && !bytes.Equal(got, want) {
				mismatch++
			}
			return true
		})
		return nil
	})
	if mismatch > 0 {
		return fmt.Errorf("ingest read-back: %d of %d blocks differ from the generator's output", mismatch, d.blocks)
	}
	g, err := ph.scrubAndGC(w, p)
	if err != nil {
		return err
	}
	return g.err()
}

// verify checks the base image; the measured phase already compared every
// fresh block.
func (d *ingest) verify(w *world, p *sim.Proc) error {
	return d.want.readBack(w, p, d.jobs*d.iodepth, imageBlock)
}

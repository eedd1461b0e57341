package main

import (
	"fmt"
	"math/rand"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// sfsDB: the SPEC SFS 2014 database mix of Fig. 12, open loop in simulated
// time. Each load unit schedules requests at a fixed rate — 50% random
// 8 KiB reads, 38% random 8 KiB overwrites of already-flushed chunks, 12%
// sequential 64 KiB log writes — and its workers serve them. The dataset is
// built from shared 32 KiB extents; the dedup engine runs throughout.
type sfsDB struct {
	seed   int64
	cfg    workload.SFSConfig
	warmup time.Duration // leading part of cfg.Duration whose ops are not recorded

	want *shadow
}

const (
	sfsExtent  = 32 << 10
	sfsLogSize = 64 << 10
)

func newSFSDB(seed int64, tiny bool) scenario {
	cfg := workload.SFSConfig{
		Loads: 4, BytesPerLoad: 8 << 20, OpsPerSecPerLoad: 1500, WorkersPerLoad: 4,
		Duration: 5 * time.Second, PageSize: 8 << 10, Seed: seed,
	}
	d := &sfsDB{seed: seed, cfg: cfg, warmup: time.Second}
	if tiny {
		d.cfg.BytesPerLoad, d.cfg.Duration, d.warmup = 1<<20, 150*time.Millisecond, 50*time.Millisecond
	}
	return d
}

func (d *sfsDB) devSize() int64 { return int64(d.cfg.Loads) * d.cfg.BytesPerLoad }

func (d *sfsDB) setup(w *world, p *sim.Proc) error {
	d.want = newShadow(d.devSize(), d.cfg.PageSize)
	gen := workload.NewSFSGen(d.cfg)
	// One builder per load unit, as workload.BuildSFSDataset does.
	var sigs []*sim.Signal
	failed := 0
	for u := 0; u < d.cfg.Loads; u++ {
		base := int64(u) * d.cfg.BytesPerLoad
		sigs = append(sigs, p.Go(fmt.Sprintf("sfs.build.%d", u), func(q *sim.Proc) {
			for off := base; off+sfsExtent <= base+d.cfg.BytesPerLoad; off += sfsExtent {
				data := w.gen.block(gen.Extent)
				d.want.begin(off, sfsExtent)
				err := w.dev.WriteAt(q, off, data)
				d.want.end(off, data, err)
				if err != nil {
					failed++
				}
			}
		}))
	}
	sim.WaitAll(p, sigs...)
	if failed > 0 {
		return fmt.Errorf("sfs dataset build: %d extent writes failed", failed)
	}
	w.s.Engine().DrainAndWait(p)
	p.Sleep(cooldown)
	w.s.Engine().EvictCold(p)
	w.s.StartEngine()
	return nil
}

// sfsOp is one scheduled request.
type sfsOp struct {
	at   sim.Time // scheduled issue time
	kind int      // 0 read, 1 overwrite, 2 log write
	off  int64
}

func (d *sfsDB) measure(w *world, p *sim.Proc, ph *phase) error {
	cfg := d.cfg
	gen := workload.NewSFSGen(cfg)
	logGen := workload.NewFIOGen(workload.FIOConfig{
		Name: "sfs.log", BlockSize: sfsLogSize, Span: d.devSize(), Pattern: workload.SeqWrite,
		DedupPct: 0, Seed: d.seed + 7,
	})
	interval := time.Duration(float64(time.Second) / cfg.OpsPerSecPerLoad)
	perLoad := int(cfg.Duration / interval)
	pages := cfg.BytesPerLoad / cfg.PageSize
	logRegion := cfg.BytesPerLoad / 8 / sfsLogSize * sfsLogSize
	start := p.Now()
	measureFrom := start + sim.Time(d.warmup)
	var sigs []*sim.Signal
	for u := 0; u < cfg.Loads; u++ {
		base := int64(u) * cfg.BytesPerLoad
		rng := rand.New(rand.NewSource(d.seed*104729 + int64(u)*31))
		queue := sim.NewQueue[sfsOp]()
		sigs = append(sigs, p.Go(fmt.Sprintf("sfs.sched.%d", u), func(q *sim.Proc) {
			logCursor := int64(0)
			for i := 0; i < perLoad; i++ {
				op := sfsOp{at: start + sim.Time(time.Duration(i)*interval)}
				q.SleepUntil(op.at)
				dice := rng.Float64() * 100
				switch {
				case dice < workload.SFSOpMix.RandReadPct:
					op.off = base + rng.Int63n(pages)*cfg.PageSize
				case dice < workload.SFSOpMix.RandReadPct+workload.SFSOpMix.RandWritePct:
					op.kind = 1
					op.off = base + rng.Int63n(pages)*cfg.PageSize
				default:
					op.kind = 2
					op.off = base + logCursor%logRegion
					logCursor += sfsLogSize
				}
				queue.Push(q, op)
			}
			queue.Close(q)
		}))
		for k := 0; k < cfg.WorkersPerLoad; k++ {
			sigs = append(sigs, p.Go(fmt.Sprintf("sfs.load%d.w%d", u, k), func(q *sim.Proc) {
				for {
					op, ok := queue.Pop(q)
					if !ok {
						return
					}
					var reads, writes *latencies // nil for warm-up ops
					if op.at >= measureFrom {
						reads, writes = &ph.reads, &ph.writes
					}
					if op.kind == 0 {
						_, err := w.dev.ReadAt(q, op.off, cfg.PageSize)
						ph.record(reads, (q.Now() - op.at).Duration(), cfg.PageSize, err)
						continue
					}
					var data []byte
					if op.kind == 1 {
						data = w.gen.block(gen.Page)
					} else {
						data = w.gen.block(logGen.NextBlock)
					}
					d.want.begin(op.off, int64(len(data)))
					err := w.dev.WriteAt(q, op.off, data)
					d.want.end(op.off, data, err)
					ph.record(writes, (q.Now() - op.at).Duration(), int64(len(data)), err)
				}
			}))
		}
	}
	sim.WaitAll(p, sigs...)
	ph.window = (p.Now() - measureFrom).Duration()
	return ph.timed("core.drain_s", func() error {
		ph.lag = w.drainLag(p)
		return nil
	})
}

func (d *sfsDB) verify(w *world, p *sim.Proc) error {
	return d.want.readBack(w, p, 16, 256<<10)
}

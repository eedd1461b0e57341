package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/chunker"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

func newCDCEnv(t *testing.T, mutate func(*Config)) *env {
	return newDedupEnv(t, func(cfg *Config) {
		cdc := chunker.NewCDC(1<<10, 4<<10, 16<<10)
		cfg.CDC = &cdc
		cfg.ChunkSize = 4096
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func TestCDCRequiresPostProcess(t *testing.T) {
	eng := sim.New(1)
	c := newTestCluster(eng)
	cfg := DefaultConfig()
	cdc := chunker.NewCDC(1<<10, 4<<10, 16<<10)
	cfg.CDC = &cdc
	cfg.Mode = ModeInline
	if _, err := Open(c, cfg); err == nil {
		t.Fatal("CDC with inline mode accepted")
	}
}

func TestCDCWriteReadRoundTrip(t *testing.T) {
	e := newCDCEnv(t, nil)
	data := make([]byte, 50000)
	rand.New(rand.NewSource(1)).Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pre-flush round trip: %v", err)
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-flush round trip: %v", err)
		}
		// Range read across CDC boundaries.
		part, err := e.cl.Read(p, "obj", 12345, 6789)
		if err != nil || !bytes.Equal(part, data[12345:12345+6789]) {
			t.Fatalf("range read: %v", err)
		}
	})
	e.checkIntegrity(t)
}

func TestCDCDedupsShiftedContent(t *testing.T) {
	// The property fixed chunking cannot have: object B = prefix + object A
	// still shares most chunks with A.
	e := newCDCEnv(t, nil)
	base := make([]byte, 40000)
	rand.New(rand.NewSource(2)).Read(base)
	shifted := append([]byte("a-short-unaligned-prefix!"), base...)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "a", 0, base); err != nil {
			t.Fatal(err)
		}
		if err := e.cl.Write(p, "b", 0, shifted); err != nil {
			t.Fatal(err)
		}
	})
	e.drain(t)
	cp := e.c.PoolStats(e.s.chunk)
	logical := int64(len(base) + len(shifted))
	saved := logical - cp.LogicalBytes
	if saved < int64(len(base))/2 {
		t.Fatalf("CDC saved only %d of %d shared bytes", saved, len(base))
	}
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "b", 0, -1)
		if err != nil || !bytes.Equal(got, shifted) {
			t.Fatalf("shifted object corrupt: %v", err)
		}
	})
	e.checkIntegrity(t)
}

func TestCDCOverwriteAfterFlush(t *testing.T) {
	e := newCDCEnv(t, nil)
	data := make([]byte, 30000)
	rand.New(rand.NewSource(3)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	e.drain(t)
	patch := []byte("OVERWRITE-ACROSS-CDC-CHUNKS")
	e.run(t, func(p *sim.Proc) {
		// Sub-range overwrite on flushed CDC entries: pre-read + span merge.
		if err := e.cl.Write(p, "obj", 9999, patch); err != nil {
			t.Fatal(err)
		}
		copy(data[9999:], patch)
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-overwrite read: %v", err)
		}
	})
	e.drain(t) // re-chunk
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-reflush read: %v", err)
		}
	})
	e.checkIntegrity(t)
}

func TestCDCDeleteReleasesChunks(t *testing.T) {
	e := newCDCEnv(t, nil)
	data := make([]byte, 20000)
	rand.New(rand.NewSource(4)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Delete(p, "obj"); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(e.c.ListObjects(e.s.chunk)); n != 0 {
		t.Fatalf("%d chunks leaked after delete", n)
	}
}

func TestCDCConcurrentWritersConverge(t *testing.T) {
	e := newCDCEnv(t, nil)
	e.s.StartEngine()
	contents := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	e.run(t, func(p *sim.Proc) {
		var sigs []*sim.Signal
		for w := 0; w < 4; w++ {
			w := w
			cl := e.s.Client(fmt.Sprintf("c%d", w))
			sigs = append(sigs, p.Go("w", func(q *sim.Proc) {
				for i := 0; i < 5; i++ {
					oid := fmt.Sprintf("w%d-o%d", w, i)
					data := make([]byte, 8000+rng.Intn(8000))
					rng.Read(data)
					contents[oid] = data
					if err := cl.Write(q, oid, 0, data); err != nil {
						t.Error(err)
					}
				}
			}))
		}
		sim.WaitAll(p, sigs...)
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		for oid, want := range contents {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("object %s corrupt: %v", oid, err)
			}
		}
	})
	e.checkIntegrity(t)
}

func TestCDCWriteRacingFlushKeepsFinal(t *testing.T) {
	e := newCDCEnv(t, nil)
	e.s.StartEngine()
	final := bytes.Repeat([]byte{0xEE}, 12000)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 12000)
			if i == 9 {
				data = final
			}
			if err := e.cl.Write(p, "contended", 0, data); err != nil {
				t.Error(err)
			}
			p.Sleep(30 * 1e6) // 30ms: let the engine race
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "contended", 0, -1)
		if err != nil || !bytes.Equal(got, final) {
			t.Errorf("lost final write under CDC: %v", err)
		}
	})
	e.checkIntegrity(t)
}

// TestCDCFlushRequeuesUnavailableObject: a CDC flush that claims an object
// and then cannot read its chunk map because every metadata replica is
// down must put the object back on its dirty list, not mistake the outage
// for a delete. The worker is held in dedup admission between the claim
// and the chunk-map read while the replicas crash; once they restart, a
// drain must leave no dirty slot.
func TestCDCFlushRequeuesUnavailableObject(t *testing.T) {
	e := newCDCEnv(t, func(cfg *Config) { cfg.DedupThreads = 1 })
	data := make([]byte, 12000)
	rand.New(rand.NewSource(6)).Read(data)
	const hold = time.Second
	// Down for longer than the read's retry budget (~11s), so the flush
	// gives up on the read and requeues; the requeue's own retries outlast
	// the rest of the outage.
	const restart = hold + 12*time.Second
	meta := e.s.MetaPool()
	acting := e.c.Map().ActingSetClass(e.c.PGOf(meta, "obj"), meta.Red.Width(), meta.Class)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
			return
		}
		// Take the only admission slot for the next second.
		start := p.Now()
		q := e.c.QoS()
		q.SetLimit(qos.Dedup, hold)
		q.WaitTurn(p, qos.Dedup)
		for _, id := range acting {
			id := id
			e.eng.After(hold/2, func() {
				if err := e.c.CrashOSD(id); err != nil {
					t.Error(err)
				}
			})
			e.eng.After(restart, func() {
				if err := e.c.RestartOSD(id); err != nil {
					t.Error(err)
				}
			})
		}
		e.s.Engine().DrainAndWait(p)
		q.SetLimit(qos.Dedup, 0)
		if back := start + sim.Time(restart+time.Second); p.Now() < back {
			p.SleepUntil(back)
		}
		e.s.Engine().DrainAndWait(p)
		if st := e.s.Engine().Stats(); st.Requeued == 0 {
			t.Errorf("flush never requeued the unreachable object: %+v", st)
		}
		// Errorf, not Fatalf: Goexit inside a sim process would stall the run.
		for _, en := range entries(t, p, e, "obj") {
			if en.Dirty {
				t.Errorf("slot %d still dirty after recovery and drain", en.Start)
			}
		}
		if got, err := e.cl.Read(p, "obj", 0, -1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after recovery: err=%v", err)
		}
	})
	e.checkIntegrity(t)
}

// TestCDCRegistryMatchesStats: CDC flushes count in the metric registry
// exactly as in EngineStats, including requeues.
func TestCDCRegistryMatchesStats(t *testing.T) {
	e := newCDCEnv(t, nil)
	e.s.StartEngine()
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 12000)
			if err := e.cl.Write(p, "contended", 0, data); err != nil {
				t.Fatal(err)
			}
			if err := e.cl.Write(p, fmt.Sprintf("o%d", i), 0, data); err != nil {
				t.Fatal(err)
			}
			p.Sleep(30 * time.Millisecond) // let the engine race the writes
		}
	})
	e.drain(t)
	st := e.s.Engine().Stats()
	reg := e.c.Metrics()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"dedup_chunks_flushed_total", st.ChunksFlushed},
		{"dedup_bytes_flushed_total", st.BytesFlushed},
		{"dedup_requeued_total", st.Requeued},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, Stats() says %d", c.name, got, c.want)
		}
	}
	if st.ChunksFlushed == 0 {
		t.Fatal("nothing flushed")
	}
}

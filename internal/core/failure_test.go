package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/sim"
)

// The §4.6 consistency argument: a crash at any point of the flush protocol
// leaves the dirty bit set (or the chunk already durable), so re-running
// deduplication converges with no lost data and correct reference counts.
// These tests crash the flush at each numbered failure point and verify
// exactly that.

func crashEnv(t *testing.T) *env {
	return newDedupEnv(t, nil)
}

// writeTwo writes two objects sharing one chunk's content.
func writeTwo(t *testing.T, e *env, content []byte) {
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "src-a", 0, content); err != nil {
			t.Error(err)
		}
		if err := e.cl.Write(p, "src-b", 0, content); err != nil {
			t.Error(err)
		}
	})
}

func verifyBoth(t *testing.T, e *env, content []byte) {
	t.Helper()
	e.run(t, func(p *sim.Proc) {
		for _, oid := range []string{"src-a", "src-b"} {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, content) {
				t.Errorf("object %s corrupt after crash recovery: %v", oid, err)
			}
		}
	})
	e.checkIntegrity(t)
}

// crashFirst returns a fault that crashes the first n times a rebind
// reaches a step of the given kind, counting the crashes in fired.
func crashFirst(kind stepKind, n int, fired *int) func(*sim.Proc, string, rebindStep) bool {
	return func(_ *sim.Proc, _ string, st rebindStep) bool {
		if st.Kind == kind && *fired < n {
			*fired++
			return true
		}
		return false
	}
}

func TestCrashAfterDeref(t *testing.T) {
	e := crashEnv(t)
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	writeTwo(t, e, v1)
	e.drain(t)
	// Overwrite both so the next flush must de-reference the old chunk, and
	// crash both flushes just before that release: the new binding is
	// committed, and the old chunk keeps one stale reference per object.
	writeTwo(t, e, v2)
	crashes := 0
	e.s.fault = crashFirst(stepRelease, 2, &crashes)
	e.drain(t) // crashes twice, requeues, then finds both objects clean
	if crashes != 2 {
		t.Fatalf("fault fired %d times", crashes)
	}
	e.s.fault = nil
	verifyBoth(t, e, v2)
	e.run(t, func(p *sim.Proc) {
		st, err := e.s.GC(p)
		if err != nil || st.StaleRefs != 2 {
			t.Fatalf("GC: err=%v %+v, want 2 stale refs", err, st)
		}
		if st, err = e.s.GC(p); err != nil || st.StaleRefs != 0 {
			t.Fatalf("second GC: err=%v %+v", err, st)
		}
		if ok, _ := e.s.hostGW(anyHost(e.s)).Exists(p, e.s.chunk, FingerprintID(v1)); ok {
			t.Error("old chunk survived GC with only stale references")
		}
	})
}

func TestCrashAfterChunkPut(t *testing.T) {
	e := crashEnv(t)
	content := bytes.Repeat([]byte{5}, 4096)
	writeTwo(t, e, content)
	crashes := 0
	// Crash between the chunk-pool write and the map update.
	e.s.fault = crashFirst(stepBind, 2, &crashes)
	e.drain(t)
	if crashes != 2 {
		t.Fatalf("fault fired %d times", crashes)
	}
	// §4.6: "If failure occurs at (3), (4), chunk's state is not cleaned.
	// Therefore, next deduplication process handles this dirty chunk ...
	// Since reference data is already stored in the chunk pool, if reference
	// data already exists, the ack is sent without storing chunk."
	verifyBoth(t, e, content)
	cp := e.c.PoolStats(e.s.chunk)
	if cp.Objects != 1 {
		t.Fatalf("chunk pool objects = %d, want 1 (idempotent re-flush)", cp.Objects)
	}
}

func TestCrashBeforeMapUpdate(t *testing.T) {
	e := crashEnv(t)
	content := bytes.Repeat([]byte{6}, 4096)
	writeTwo(t, e, content)
	crashes := 0
	// Crash before the chunk put itself: nothing reached the chunk pool.
	e.s.fault = crashFirst(stepIntent, 3, &crashes)
	e.drain(t)
	if crashes != 3 {
		t.Fatalf("fault fired %d times", crashes)
	}
	verifyBoth(t, e, content)
}

func TestCrashStormConverges(t *testing.T) {
	// Random crashes at every protocol step across many objects; repeated
	// drains must converge to a consistent, fully deduplicated state.
	e := crashEnv(t)
	rng := rand.New(rand.NewSource(99))
	contents := map[string][]byte{}
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			oid := fmt.Sprintf("obj-%d", i)
			data := make([]byte, 8192)
			if i%3 == 0 {
				copy(data, bytes.Repeat([]byte{0x42}, 8192)) // shared content
			} else {
				rng.Read(data)
			}
			contents[oid] = data
			if err := e.cl.Write(p, oid, 0, data); err != nil {
				t.Error(err)
			}
		}
	})
	e.s.fault = func(*sim.Proc, string, rebindStep) bool { return rng.Intn(3) == 0 }
	e.drain(t) // crashy drain: some flushes abort and requeue

	// Disable crashes and drain again, then let the leases run out and the
	// reconcilers finish what crashed commits and releases left behind —
	// the protocol must converge.
	e.s.fault = nil
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		p.Sleep(e.s.cfg.IntentLease + time.Second)
		if st, err := e.s.Audit(p); err != nil || st.LostChunks != 0 {
			t.Fatalf("audit: err=%v %+v", err, st)
		}
		if _, err := e.s.GC(p); err != nil {
			t.Fatal(err)
		}
	})

	e.run(t, func(p *sim.Proc) {
		for oid, want := range contents {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("object %s corrupt after crash storm: %v", oid, err)
			}
		}
	})
	e.checkIntegrity(t)
}

func TestFalsePositiveRefcountAndGC(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	shared := bytes.Repeat([]byte{8}, 4096)
	writeTwo(t, e, shared)
	e.drain(t)
	chunkOID := FingerprintID(shared)
	e.run(t, func(p *sim.Proc) {
		// Delete both referents: in FP mode the chunk is NOT deleted inline.
		if err := e.cl.Delete(p, "src-a"); err != nil {
			t.Error(err)
		}
		if err := e.cl.Delete(p, "src-b"); err != nil {
			t.Error(err)
		}
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, chunkOID); !ok {
			t.Fatal("FP mode deleted the chunk inline")
		}
		// GC reclaims it.
		stats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksDeleted != 1 {
			t.Errorf("GC deleted %d chunks, want 1 (stats: %+v)", stats.ChunksDeleted, stats)
		}
		if ok, _ := gw.Exists(p, e.s.chunk, chunkOID); ok {
			t.Error("chunk survived GC with zero live references")
		}
	})
}

func TestGCKeepsLiveChunks(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	shared := bytes.Repeat([]byte{4}, 4096)
	writeTwo(t, e, shared)
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Delete(p, "src-a"); err != nil {
			t.Error(err)
		}
		stats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksDeleted != 0 {
			t.Errorf("GC deleted a chunk still referenced by src-b")
		}
		got, err := e.cl.Read(p, "src-b", 0, -1)
		if err != nil || !bytes.Equal(got, shared) {
			t.Errorf("src-b corrupt after GC: %v", err)
		}
	})
}

func TestGCReclaimsLeakedRefs(t *testing.T) {
	// Simulate the FP-mode leak the paper's GC exists for: a chunk whose
	// back reference points at an object slot that moved on.
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, v1) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, v2) })
	e.drain(t)
	// In FP mode the old chunk (v1) was only de-referenced lock-free — it
	// still exists until GC runs.
	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(v1)); !ok {
			t.Skip("old chunk already reclaimed (drop-ref removed last key)")
		}
		if _, err := e.s.GC(p); err != nil {
			t.Fatal(err)
		}
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(v1)); ok {
			t.Error("GC left an unreferenced chunk")
		}
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(v2)); !ok {
			t.Error("GC deleted the live chunk")
		}
	})
}

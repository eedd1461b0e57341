package main

import (
	"crypto/sha256"
	"math"
	"testing"
)

func TestFoldStackInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// The innermost dedupstore/internal frame decides, whatever calls it.
		{[]string{"runtime.memmove", "dedupstore/internal/store.(*Store).Apply", "dedupstore/internal/rados.(*Gateway).replicate", "dedupstore/internal/core.(*Client).write"}, "store"},
		{[]string{"dedupstore/internal/sim.(*Proc).park", "dedupstore/internal/rados.(*Gateway).Read"}, "sim"},
		// crypto/sha256 under core.FingerprintID is core's work.
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "crypto/sha256.Sum256", "dedupstore/internal/core.FingerprintID", "dedupstore/internal/core.(*Engine).flushChunk"}, "core"},
		// Helper modules fold into the layer that owns them.
		{[]string{"dedupstore/internal/crush.PGForObject", "dedupstore/internal/core.(*Store).GC"}, "rados"},
		{[]string{"dedupstore/internal/qos.(*Scheduler).Use.func1"}, "rados"},
		{[]string{"dedupstore/internal/hitset.(*Tracker).Record", "dedupstore/internal/core.(*Client).read"}, "core"},
		{[]string{"math/rand.(*Rand).Read", "dedupstore/internal/workload.fillRandom", "main.(*ingest).measure.func1"}, "workload"},
		{[]string{"sync/atomic.AddInt64", "dedupstore/internal/metrics.(*Histogram).Add"}, "metrics"},
		{[]string{"dedupstore/internal/client.(*BlockDevice).ReadAt"}, "client"},
		// No repository frame: GC workers count as runtime.gc, the rest as other.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"runtime.mallocgc", "main.(*latencies).add"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("foldStack(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	lw := layerWeights{}
	lw.add([][]string{
		{"dedupstore/internal/sim.(*Engine).RunUntil"},
		{"crypto/sha256.block", "dedupstore/internal/core.FingerprintID"},
		{"runtime.gcBgMarkWorker"},
		{"runtime.schedule"},
		{"dedupstore/internal/workload.fillRandom"},
	}, []int64{10, 30, 5, 5, 50})
	sh := lw.shares()
	sum := 0.0
	for _, l := range cpuLayers {
		sum += sh[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, sh)
	}
	want := map[string]float64{"sim": 0.1, "core": 0.3, "runtime.gc": 0.05, "other": 0.05, "workload": 0.5}
	for l, w := range want {
		if math.Abs(sh[l]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, sh[l], w)
		}
	}
	if len(sh) != len(cpuLayers) {
		t.Errorf("shares cover %d layers, want %d", len(sh), len(cpuLayers))
	}
	empty := layerWeights{}.shares()
	for _, l := range cpuLayers {
		if empty[l] != 0 {
			t.Errorf("empty profile: %s share %v", l, empty[l])
		}
	}
}

var sink [32]byte

// TestParseProfile decodes a real CPU profile of a hashing loop: the
// decoder must recover samples whose stacks name the loop's frames.
func TestParseProfile(t *testing.T) {
	buf := make([]byte, 1<<16)
	stacks, weights, err := cpuProfile(func() error {
		for i := 0; i < 4000; i++ {
			sink = sha256.Sum256(buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("got %d stacks, %d weights", len(stacks), len(weights))
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Errorf("sample %d has weight %d", i, weights[i])
		}
		for _, f := range st {
			if f == "crypto/sha256.Sum256" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample names crypto/sha256.Sum256; first stack %q", stacks[0])
	}
}

func TestPbVarintAndRepeated(t *testing.T) {
	if v, n := pbVarint([]byte{0xac, 0x02}); v != 300 || n != 2 {
		t.Errorf("pbVarint = %d,%d want 300,2", v, n)
	}
	if _, n := pbVarint([]byte{0x80}); n != 0 {
		t.Errorf("truncated varint decoded with length %d", n)
	}
	var got []uint64
	if err := pbRepeated(0, []byte{1, 0xac, 0x02, 3}, func(x uint64) { got = append(got, x) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 300 || got[2] != 3 {
		t.Errorf("packed = %v", got)
	}
	if err := pbFields([]byte{0x0a, 0x05, 1}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("overlong length-delimited field accepted")
	}
}

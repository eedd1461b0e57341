package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// pinSeeds cover the seeding edge cases: zero (replaced by 89482311), its
// replacement itself, negatives, multiples of 2³¹−1 (reduce to zero) and the
// int64 extremes.
var pinSeeds = []int64{
	0, 1, -1, 7, -12345, 89482311, int32max, 2 * int32max, -int32max,
	int32max - 1, 1 << 40, math.MinInt64, math.MaxInt64,
}

// refStream is the parent implementation: math/rand's Read on a fresh Rand.
func refStream(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// pinLengths are every length up to past the generator's first two index
// wraps (bytes 2338 and 4249), then a stride that is neither a multiple of
// 7 nor of 8, then block sizes and their neighbours up to 70 000.
func pinLengths() []int {
	var ls []int
	for n := 0; n <= 4400; n++ {
		ls = append(ls, n)
	}
	for n := 4401; n <= 70000; n += 997 {
		ls = append(ls, n)
	}
	for _, n := range []int{8 << 10, 32 << 10, 64 << 10} {
		ls = append(ls, n-1, n, n+1)
	}
	return append(ls, 70000)
}

func TestFillRandomMatchesMathRand(t *testing.T) {
	const max, guard = 70000, 16
	backing := make([]byte, max+guard)
	for _, seed := range pinSeeds {
		want := refStream(seed, max)
		for _, n := range pinLengths() {
			for i := n; i < n+guard; i++ {
				backing[i] = 0xA5
			}
			FillRandom(backing[:n], seed)
			if !bytes.Equal(backing[:n], want[:n]) {
				t.Fatalf("seed %d len %d: FillRandom differs from math/rand", seed, n)
			}
			for i := n; i < n+guard; i++ {
				if backing[i] != 0xA5 {
					t.Fatalf("seed %d len %d: wrote byte %d past the buffer", seed, n, i)
				}
			}
		}
	}
}

func TestFillRandomAtMatchesStream(t *testing.T) {
	for _, seed := range []int64{0, 3, -99, math.MaxInt64} {
		want := refStream(seed, 40000)
		offs := []int{1, 6, 7, 8, 13, 14, 2337, 2338, 2339, 4249, 4250, 8192, 16384, 24576, 30001}
		for off := 0; off < 64; off++ {
			offs = append(offs, off)
		}
		for _, off := range offs {
			for _, n := range []int{0, 1, 5, 6, 7, 8, 9, 100, 2400, 8192} {
				got := make([]byte, n)
				fillRandomAt(got, seed, off)
				if !bytes.Equal(got, want[off:off+n]) {
					t.Fatalf("seed %d off %d len %d: fillRandomAt differs from the stream", seed, off, n)
				}
			}
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	var s source
	for _, seed := range pinSeeds {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed) // reseeding a used source must fully reset it
		for i := 0; i < 3*rngLen; i++ {
			if i%2 == 0 {
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, got, want)
				}
			} else if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, got, want)
			}
		}
	}
}

func TestSeedrandMatchesSchrage(t *testing.T) {
	// math/rand's seedrand: Schrage's method for 48271·x mod (2³¹−1).
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		return x
	}
	xs := []int32{1, 2, 44487, 44488, 44489, 3399, int32max / 2, int32max - 2, int32max - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, 1+rng.Int31n(int32max-1))
	}
	for _, x := range xs {
		if got, want := seedrand(x), schrage(x); got != want {
			t.Fatalf("seedrand(%d) = %d, want %d", x, got, want)
		}
	}
}

// refFillCompressible is the parent implementation of fillCompressible.
func refFillCompressible(buf []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"config", "kernel", "libexec", "update", "package", "service", "systemd", "default"}
	pos := 0
	for pos < len(buf) {
		if rng.Intn(3) == 0 {
			var raw [8]byte
			binary.LittleEndian.PutUint64(raw[:], rng.Uint64())
			pos += copy(buf[pos:], raw[:])
			continue
		}
		w := words[rng.Intn(len(words))]
		pos += copy(buf[pos:], w)
		if pos < len(buf) {
			buf[pos] = '/'
			pos++
		}
	}
}

func TestFillCompressibleMatchesParent(t *testing.T) {
	for _, seed := range pinSeeds {
		for _, n := range []int{0, 1, 7, 4095, 4096, 32 << 10} {
			got, want := make([]byte, n), make([]byte, n)
			fillCompressible(got, seed)
			refFillCompressible(want, seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d len %d: fillCompressible differs from the parent", seed, n)
			}
		}
	}
}

func TestFillCompressibleConcurrent(t *testing.T) {
	// The pooled generators must never be shared between two fills.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, want := make([]byte, 4096), make([]byte, 4096)
			for i := 0; i < 50; i++ {
				seed := int64(w*1000 + i)
				fillCompressible(got, seed)
				refFillCompressible(want, seed)
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d seed %d: concurrent fillCompressible differs from the parent", w, seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// refSFSPager is the parent SFSGen.Page: it materializes the whole pool
// extent and returns one page of it.
type refSFSPager struct {
	cfg  SFSConfig
	pool *BlockPool
	n    int64
	rng  *rand.Rand
	uniq int64
}

func (g *refSFSPager) page() []byte {
	if g.rng.Float64() < sfsUniqueFrac {
		g.uniq++
		buf := make([]byte, g.cfg.PageSize)
		rand.New(rand.NewSource(g.cfg.Seed*104729 + g.uniq)).Read(buf)
		return buf
	}
	ext := make([]byte, extentSize)
	rand.New(rand.NewSource(g.pool.seedOf(g.rng.Int63n(g.n)))).Read(ext)
	q := g.rng.Int63n(extentSize / g.cfg.PageSize)
	return ext[q*g.cfg.PageSize : (q+1)*g.cfg.PageSize]
}

func TestSFSPageMatchesParentQuarter(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		g := NewSFSGen(SFSConfig{Seed: seed})
		ref := &refSFSPager{cfg: g.cfg, pool: g.pool, n: g.n, rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 1000; i++ {
			got, want := g.Page(), ref.page()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d draw %d: Page differs from the parent's extent quarter", seed, i)
			}
			if int64(len(got)) != g.cfg.PageSize || int64(cap(got)) != g.cfg.PageSize {
				t.Fatalf("seed %d draw %d: Page len %d cap %d, want %d", seed, i, len(got), cap(got), g.cfg.PageSize)
			}
		}
		if ref.uniq == 0 {
			t.Fatalf("seed %d: no unique page drawn; the test covers only pool pages", seed)
		}
	}
}

func TestDeriveCookedIsSeedIndependent(t *testing.T) {
	// The table is a property of math/rand, not of the seed used to
	// recover it.
	for _, seed := range []int64{2, -5, 89482311} {
		if deriveCooked(seed) != rngCooked {
			t.Fatalf("deriveCooked(%d) differs from deriveCooked(1)", seed)
		}
	}
}

func TestFillRandomAllocatesNothing(t *testing.T) {
	buf := make([]byte, 32<<10)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		FillRandom(buf, seed)
	}); n != 0 {
		t.Fatalf("FillRandom(32 KiB) allocates %v times per call, want 0", n)
	}
}

func FuzzFillRandom(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(1), uint16(7))
	f.Add(int64(-1), uint16(4250))
	f.Add(int64(math.MinInt64), uint16(32<<10))
	f.Add(int64(math.MaxInt64), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got := make([]byte, n)
		FillRandom(got, seed)
		if want := refStream(seed, int(n)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d len %d: FillRandom differs from math/rand", seed, n)
		}
	})
}

var benchSink []byte

func BenchmarkFillRandom(b *testing.B) {
	buf := make([]byte, 32<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillRandom(buf, int64(i))
	}
	benchSink = buf
}

package workload

import (
	"encoding/binary"
	"math/rand"
)

// The content kernel: math/rand's additive lagged-Fibonacci generator
// (rngSource, x[n] = x[n-607] + x[n-273] mod 2⁶⁴), inlined so a block fill
// reuses no heap state and emits the stream a word at a time. Its output is
// byte-for-byte math/rand's: FillRandom(buf, seed) writes exactly what
// rand.New(rand.NewSource(seed)).Read(buf) writes (DESIGN.md §9).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// rngCooked is math/rand's seeding table, derived from math/rand itself so
// that package stays the single source of truth (see deriveCooked).
var rngCooked = deriveCooked(1)

// source is the kernel's generator state. It implements rand.Source64 the
// way math/rand's rngSource does: Int63 masks the sign bit, Uint64 does not.
type source struct {
	vec  [rngLen]int64
	tap  int
	feed int
}

// rand.Rand.Uint64 draws one Uint64 from a Source64 but two Int63 from a
// plain Source, so the stream matches math/rand's only as a Source64.
var _ rand.Source64 = (*source)(nil)

// seedrand returns 48271·x mod (2³¹−1), math/rand's seeding step, by a
// Mersenne reduction of the 64-bit product (x is in [1, 2³¹−2]).
func seedrand(x int32) int32 {
	p := uint64(x) * 48271
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return int32(r)
}

// seedTerm is the value rngSource.Seed XORs with rngCooked[i] to form
// vec[i], advancing the seeding chain x.
func seedTerm(x *int32) int64 {
	*x = seedrand(*x)
	u := int64(*x) << 40
	*x = seedrand(*x)
	u ^= int64(*x) << 20
	*x = seedrand(*x)
	return u ^ int64(*x)
}

// seedChain returns the seeding chain's value just before vec[0]'s term:
// the seed reduced into [1, 2³¹−2] and advanced 20 steps.
func seedChain(seed int64) int32 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	return x
}

// Seed sets the state rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := seedChain(seed)
	for i := range s.vec {
		s.vec[i] = seedTerm(&x) ^ rngCooked[i]
	}
}

// Uint64 returns the next 64-bit value.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with the sign bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// stretch returns how many steps, at most limit, the generator can take
// before tap or feed wraps, wrapping an exhausted index first.
func (s *source) stretch(limit int) int {
	if s.tap == 0 {
		s.tap = rngLen
	}
	if s.feed == 0 {
		s.feed = rngLen
	}
	return min(s.tap, s.feed, limit)
}

// skip advances the generator n steps without emitting anything.
func (s *source) skip(n int) {
	for n > 0 {
		k := s.stretch(n)
		n -= k
		s.tap -= k
		s.feed -= k
		vt := s.vec[s.tap : s.tap+k]
		vf := s.vec[s.feed : s.feed+k]
		for j := k - 1; j >= 0; j-- {
			vf[j] += vt[j]
		}
	}
}

// read fills buf the way rand.Read does on a fresh Rand: 7 low bytes of
// each Int63, least significant first. Each step stores the whole word
// little-endian and advances 7 bytes; the eighth byte is overwritten by
// the next step, and the last step (1 to 7 bytes) is copied from a word.
func (s *source) read(buf []byte) {
	n := 0
	for len(buf)-n >= 8 {
		// A word store needs 8 bytes; the final one lands at n+7(k-1).
		k := s.stretch((len(buf) - n - 1) / 7)
		s.tap -= k
		s.feed -= k
		vt := s.vec[s.tap : s.tap+k]
		vf := s.vec[s.feed : s.feed+k]
		out := buf[n : n+7*k+1]
		for j := k - 1; j >= 0; j-- {
			x := vf[j] + vt[j]
			vf[j] = x
			binary.LittleEndian.PutUint64(out, uint64(x))
			out = out[7:]
		}
		n += 7 * k
	}
	if n < len(buf) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s.Uint64())
		copy(buf[n:], w[:])
	}
}

// FillRandom fills buf with seeded pseudo-random (incompressible) bytes:
// exactly rand.New(rand.NewSource(seed)).Read(buf), without allocating.
func FillRandom(buf []byte, seed int64) { fillRandomAt(buf, seed, 0) }

// fillRandomAt writes bytes [off, off+len(buf)) of FillRandom's stream for
// seed into buf, generating but not storing the off bytes before them.
func fillRandomAt(buf []byte, seed int64, off int) {
	var s source
	s.Seed(seed)
	s.skip(off / 7)
	if drop := off % 7; drop > 0 && len(buf) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s.Uint64())
		buf = buf[copy(buf, w[drop:7]):]
	}
	s.read(buf)
}

// deriveCooked recovers rngCooked from math/rand. The first rngLen outputs
// of a source seeded with seed overwrite each state word exactly once, so
// they are its state after rngLen steps; undoing the recurrence from there
// yields the seeded initial state, and XOR-ing out the seeding chain's
// terms leaves the cooked table (the same for every seed).
func deriveCooked(seed int64) [rngLen]int64 {
	src := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = int64(src.Uint64())
	}
	// tap and feed are back at their seeded positions: undo the steps
	// newest first.
	for i := 0; i < rngLen; i++ {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	x := seedChain(seed)
	for i := range vec {
		vec[i] ^= seedTerm(&x)
	}
	return vec
}

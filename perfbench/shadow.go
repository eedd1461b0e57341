package main

import (
	"bytes"
	"fmt"

	"dedupstore/internal/sim"
)

// shadow is the expected content of a device, kept page by page as the
// workload's writes complete. Two writes to one page that overlap in
// simulated time leave its final content up to the store's ordering, so
// such pages (and pages of failed writes) are excluded from the check.
type shadow struct {
	page     int64
	data     []byte
	inflight map[int64]int
	unknown  map[int64]bool
}

func newShadow(size, page int64) *shadow {
	return &shadow{page: page, data: make([]byte, size), inflight: map[int64]int{}, unknown: map[int64]bool{}}
}

func (s *shadow) pages(off, n int64) (first, last int64) {
	return off / s.page, (off + n - 1) / s.page
}

// begin marks a write of n bytes at off as in flight.
func (s *shadow) begin(off, n int64) {
	first, last := s.pages(off, n)
	for pg := first; pg <= last; pg++ {
		if s.inflight[pg] > 0 {
			s.unknown[pg] = true
		}
		s.inflight[pg]++
	}
}

// end records the completed write's content.
func (s *shadow) end(off int64, data []byte, err error) {
	first, last := s.pages(off, int64(len(data)))
	for pg := first; pg <= last; pg++ {
		s.inflight[pg]--
		if err != nil {
			s.unknown[pg] = true
		}
	}
	copy(s.data[off:], data)
}

// mismatches counts the pages of got (read at off) that differ from the
// expected content.
func (s *shadow) mismatches(off int64, got []byte) int {
	bad := 0
	for pos := int64(0); pos < int64(len(got)); pos += s.page {
		pg := (off + pos) / s.page
		end := pos + s.page
		if end > int64(len(got)) {
			end = int64(len(got))
		}
		if !s.unknown[pg] && !bytes.Equal(got[pos:end], s.data[off+pos:off+end]) {
			bad++
		}
	}
	return bad
}

// readBack reads the whole device with n sim clients in chunks of step
// bytes and compares it with the expected content.
func (s *shadow) readBack(w *world, p *sim.Proc, n int, step int64) error {
	size := int64(len(s.data))
	next, bad, failed := int64(0), 0, 0
	closedLoop(p, n, "verify", func(q *sim.Proc) bool {
		if next >= size {
			return false
		}
		off := next
		next += step
		l := step
		if off+l > size {
			l = size - off
		}
		got, err := w.dev.ReadAt(q, off, l)
		if err != nil {
			failed++
			return true
		}
		bad += s.mismatches(off, got)
		return true
	})
	if bad > 0 || failed > 0 {
		return fmt.Errorf("read-back: %d pages differ from what was written, %d reads failed", bad, failed)
	}
	return nil
}

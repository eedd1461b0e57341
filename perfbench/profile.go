package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers a CPU profile sample is attributed to. Their
// shares of a profile sum to 1.
var cpuLayers = []string{"workload", "sim", "rados", "store", "core", "client", "metrics", "runtime.gc", "other"}

// moduleLayer maps each dedupstore/internal module the benchmark loads to
// its layer: crush, qos, the cost model and the EC codec are part of the
// rados layer; hashing, chunking and hotness helpers part of core.
var moduleLayer = map[string]string{
	"workload": "workload",
	"sim":      "sim",
	"rados":    "rados", "crush": "rados", "qos": "rados", "simcost": "rados", "ec": "rados",
	"store": "store",
	"core":  "core", "hitset": "core", "chunker": "core", "bloom": "core", "fpindex": "core", "tiering": "core", "xxh": "core",
	"client":  "client",
	"metrics": "metrics",
}

const repoPrefix = "dedupstore/internal/"

// gcWorkers are the runtime's background collector goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// foldStack attributes one sample, frames innermost first, to a layer: the
// innermost frame inside a dedupstore/internal module decides (so
// crypto/sha256 called from core.FingerprintID counts as core); samples
// without one count as runtime.gc when a GC worker ran them, else other.
func foldStack(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, repoPrefix) {
			continue
		}
		mod := f[len(repoPrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if l, ok := moduleLayer[mod]; ok {
			return l
		}
	}
	for _, f := range frames {
		for _, g := range gcWorkers {
			if f == g {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// layerWeights accumulates profile weight per layer.
type layerWeights map[string]int64

func (lw layerWeights) add(stacks [][]string, weights []int64) {
	for i, st := range stacks {
		lw[foldStack(st)] += weights[i]
	}
}

// shares returns each layer's fraction of the total weight (all 0 for an
// empty profile).
func (lw layerWeights) shares() map[string]float64 {
	var total int64
	for _, w := range lw {
		total += w
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = ratio(float64(lw[l]), float64(total))
	}
	return out
}

// cpuProfile runs fn under the Go CPU profiler and returns its samples.
func cpuProfile(fn func() error) (stacks [][]string, weights []int64, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("start cpu profile: %w", err)
	}
	fnErr := fn()
	pprof.StopCPUProfile()
	if fnErr != nil {
		return nil, nil, fnErr
	}
	return parseProfile(&buf)
}

// parseProfile decodes a gzipped pprof profile (profile.proto) into its
// samples: each sample's frames, innermost first (inlined calls expanded),
// and its weight (the last sample value, CPU nanoseconds for a CPU
// profile).
func parseProfile(r io.Reader) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if idx := funcs[fid]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		stacks = append(stacks, frames)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields walks a protobuf message, calling fn with each field number and
// either its varint value (v) or its length-delimited payload (b).
// Fixed-width fields are skipped; the profile format uses none.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(msg)
			if n == 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated delivers a repeated varint field that was encoded either as
// one value (v, b == nil) or packed (b).
func pbRepeated(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes a varint, returning its length (0 if malformed).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

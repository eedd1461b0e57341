package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func specMetrics(specs []spec, withBound bool) []benchMetric {
	out := make([]benchMetric, 0, len(specs))
	for _, s := range specs {
		m := benchMetric{Name: s.name, Unit: s.unit, Better: s.better}
		if withBound {
			b := s.bound
			m.Bound = &b
		}
		out = append(out, m)
	}
	return out
}

// BENCHMARK.json at the repository root lists the same workloads and
// metrics, with the same units, directions and bounds, as the spec table.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	want := struct{ E, P []benchMetric }{specMetrics(endToEndSpecs, true), specMetrics(perLayerSpecs, false)}
	if !reflect.DeepEqual(bf.EndToEnd, want.E) || !reflect.DeepEqual(bf.PerLayer, want.P) {
		js, _ := json.MarshalIndent(map[string][]benchMetric{"end_to_end": want.E, "per_layer": want.P}, "", "  ")
		t.Errorf("BENCHMARK.json metrics differ from the spec table; want:\n%s", js)
	}
	for _, s := range endToEndSpecs {
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", s.name, s.bound)
		}
		if s.bound > endToEndSpecs[0].bound {
			t.Errorf("%s bound %v exceeds setup_s's, which must be the largest", s.name, s.bound)
		}
	}
}

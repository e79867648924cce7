package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs one short round of every workload on small inputs, untraced
// and traced, with every answer verified.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames() {
		cfg := runConfig{workload: name, seed: defaultSeed, smoke: true, outDir: out}
		res, err := runUntraced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, res.failures)
		}
		for _, m := range res.metrics {
			if !(m.value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, m.value)
			}
		}

		res, err = runTraced(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s traced: %d ops failed: %v", name, res.failed, res.failures)
		}
		if len(res.metrics) != len(layerMetrics) {
			t.Errorf("%s traced: %d metrics, want %d", name, len(res.metrics), len(layerMetrics))
		}
		raw, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
			t.Errorf("%s: trace file holds %d spans (%v)", name, len(doc.Spans), err)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's own
// tables of workloads and metrics from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads declared, program has %d", len(doc.Workloads), len(workloadWhy))
	}
	for i, w := range workloadWhy {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, program has %+v", i, doc.Workloads[i], w)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, program reports %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if d := doc.PerLayer[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer metric %d: declared %+v, program has %+v", i, d, m)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if d := doc.EndToEnd[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("end-to-end metric %d: declared %+v, program has %+v", i, d, m)
		}
	}
}

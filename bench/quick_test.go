package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuick runs the harness itself, all four workloads, one short round,
// output checks on: the harness compiles, every phase runs and every output
// is right. It measures nothing.
func TestQuick(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-quick", "-out", dir}); code != 0 {
		t.Fatalf("bench -quick exited %d", code)
	}
	f, err := readResult(filepath.Join(dir, "result-end_to_end.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadNames) || f.Claim != nil {
		t.Fatalf("result file: %d workloads, claim %v", len(f.Workloads), f.Claim)
	}
	for _, r := range f.Workloads {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", r.Workload, r.Attempted, r.Failed)
		}
		for _, m := range endToEndMetrics {
			if _, ok := r.EndToEnd[m.Name]; !ok {
				t.Errorf("%s: no %s", r.Workload, m.Name)
			}
		}
	}
	// A file agrees with itself.
	if code := run([]string{"-compare", filepath.Join(dir, "result-end_to_end.json"), filepath.Join(dir, "result-end_to_end.json")}); code != 0 {
		t.Errorf("-compare of a file with itself exited %d", code)
	}
}

// TestQuickTraced is the same for the per-layer run on the smallest
// workload: every per-layer metric is reported and the spans are written.
func TestQuickTraced(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-quick", "-trace", "1", "-workload", "needle_requests", "-out", dir}); code != 0 {
		t.Fatalf("bench -quick -trace 1 exited %d", code)
	}
	f, err := readResult(filepath.Join(dir, "result-per_layer.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Workloads[0]
	if r.Failed != 0 {
		t.Errorf("failed %d of %d", r.Failed, r.Attempted)
	}
	for _, m := range perLayerMetrics {
		if _, ok := r.PerLayer[m.Name]; !ok {
			t.Errorf("no %s", m.Name)
		}
	}
	if len(r.PerLayer) != len(perLayerMetrics) {
		t.Errorf("%d per-layer values, %d defined", len(r.PerLayer), len(perLayerMetrics))
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-needle_requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.Spans) == 0 {
		t.Fatalf("trace file: %d spans, %v", len(trace.Spans), err)
	}
	nested := 0
	for _, s := range trace.Spans {
		if s.Name == "server.handler" && s.Parent != 0 {
			nested++
		}
	}
	if nested == 0 {
		t.Error("no handler span nested in a client span")
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in metrics.go
// from drifting apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json", len(b.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || (m.Bound != nil && *m.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, m, d)
			}
		}
	}
	var driverE2E []metricDef
	for _, m := range endToEndMetrics {
		if m.Name != "error_rate" { // travels as failed/attempted
			driverE2E = append(driverE2E, m)
		}
	}
	check("end_to_end", b.EndToEnd, driverE2E)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

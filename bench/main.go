// Command bench is the repository's benchmark: four seeded workloads run
// through every layer of the system (prefilter scan, engine step kernel,
// engine.Run*, core's segmented execution, pap.Match/Stream, papd over
// HTTP), with every output checked against a scalar reference.
//
//	go run -C bench pap/bench -workload snort_sparse -seed 1 -seconds 20 -trace 0
//
// measures one workload's end-to-end metrics with tracing off and prints
// them as one JSON object on the last line; -trace 1 measures the per-layer
// metrics instead and writes the spans to out/trace-<workload>.json.
// Without -workload all four run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// env is written into every result file, so that two files can be shown to
// come from comparable machines and identical inputs.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout, or "unknown" outside a git repository (the
// driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what -out receives: one schema for both modes.
type resultFile struct {
	Env       env       `json:"env"`
	Mode      string    `json:"mode"` // "end_to_end" or "per_layer"
	Workloads []*result `json:"workloads"`
	Claim     *string   `json:"claim"` // always null: the benchmark claims no gain
}

// contractLine is the last line of standard output for a single workload.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "", "workload to run (default: all four)")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", 20, "how long one workload measures")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and spans")
		quick        = fs.Bool("quick", false, "one short round per workload: exercises and checks everything, measures nothing")
		compare      = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		outDir       = fs.String("out", "out", "directory for result and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	pl := planFor(*seconds)
	if *quick {
		pl = quickPlan()
	}
	file := resultFile{
		Env: env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPUModel: cpuModel(), Commit: commit(), Seed: *seed, Seconds: *seconds, Quick: *quick},
		Mode: "end_to_end",
	}
	if *trace != 0 {
		file.Mode = "per_layer"
	}
	if err := measure(&file, names, pl, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, r := range file.Workloads {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// measure runs the named workloads in the file's mode, prints each result,
// writes the file, and ends standard output with the driver's contract line
// when there is one workload.
func measure(file *resultFile, names []string, pl plan, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		p, err := prepare(name, file.Env.Seed)
		if err != nil {
			return err
		}
		var r *result
		if file.Mode == "per_layer" {
			r, err = p.runPerLayer(pl, outDir)
		} else {
			r, err = p.runEndToEnd(pl)
		}
		if err != nil {
			return err
		}
		printResult(os.Stdout, r)
		file.Workloads = append(file.Workloads, r)
	}
	path := filepath.Join(outDir, "result-"+file.Mode+".json")
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	last := []byte(`{"claim": null}`)
	if len(file.Workloads) == 1 {
		var err error
		if last, err = json.Marshal(contractOf(file.Workloads[0])); err != nil {
			return err
		}
	}
	fmt.Println(string(last))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractOf renders a result as the driver's contract line: the
// BENCHMARK.json end-to-end metrics untraced, the per-layer metrics traced.
// error_rate travels as failed/attempted.
func contractOf(r *result) contractLine {
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEndMetrics {
		if s, ok := r.EndToEnd[m.Name]; ok && m.Name != "error_rate" {
			line.Metrics[m.Name] = metricValue{s.Value, m.Unit}
		}
	}
	for _, m := range perLayerMetrics {
		if v, ok := r.PerLayer[m.Name]; ok {
			line.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	return line
}

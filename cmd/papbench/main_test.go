package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pap/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from this run")

func tinyEnv() *experiments.Env {
	return experiments.NewEnv(experiments.Options{
		Scale:      0.02,
		Size1MB:    8 << 10,
		Size10MB:   16 << 10,
		Seed:       7,
		Workers:    2,
		Benchmarks: []string{"ExactMatch", "Bro217"},
	})
}

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "fig3", "fig9", "fig10", "fig11", "fig12", "energy", "switch", "ablation", "dfa"} {
		if err := run(io.Discard, tinyEnv(), exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, tinyEnv(), "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFig8(t *testing.T) {
	if err := run(io.Discard, tinyEnv(), "fig8"); err != nil {
		t.Fatal(err)
	}
}

// TestAllGolden pins the whole evaluation (Table 1, Figures 3 and 8-12,
// switch sensitivity, energy) byte for byte at a small scale, so a change
// that moves any modelled figure shows up as a diff of testdata/all.golden.
// Regenerate the file with `go test ./cmd/papbench -run TestAllGolden -update`.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	env := experiments.NewEnv(experiments.Options{
		Scale:    0.05,
		Size1MB:  16384,
		Size10MB: 65536,
		Seed:     42,
		Workers:  2,
	})
	var got bytes.Buffer
	if err := run(&got, env, "all"); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("papbench -experiment all differs from %s; rerun with -update if the change is intended\n%s",
			golden, firstDiff(got.Bytes(), want))
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "lengths differ"
}

package main

import (
	"regexp"
	"testing"
)

// Exact counts only, no timings: these guards keep each workload doing what
// its row in the README says.

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 1)
		c, _ := generate(name, 2)
		if a.sha != b.sha {
			t.Errorf("%s: same seed, different sha256", name)
		}
		if a.sha == c.sha {
			t.Errorf("%s: other seed, same sha256", name)
		}
		if len(a.patterns) != len(c.patterns) || len(a.corpus) != len(c.corpus) {
			t.Errorf("%s: the seed changed the workload's size", name)
		}
		if len(a.corpus)%a.unit != 0 || len(a.corpus)%a.payload != 0 {
			t.Errorf("%s: corpus of %d B is not whole units (%d) and payloads (%d)", name, len(a.corpus), a.unit, a.payload)
		}
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, name := range workloadNames {
			p, err := prepare(name, seed) // runs the guard
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				continue
			}
			t.Logf("seed %d %s: %+v", seed, name, p.shape)
			again, err := prepare(name, seed)
			if err != nil || again.shape != p.shape {
				t.Errorf("seed %d %s: shape does not repeat: %+v vs %+v (%v)", seed, name, p.shape, again.shape, err)
			}
		}
	}
}

func TestGuardRefusesWrongShape(t *testing.T) {
	good := map[string]shape{
		"snort_sparse":    {Matches: 1, SkippedFrac: 0.96},
		"dotstar_dense":   {Matches: 1, SkippedFrac: 0, AvgFrontier: 180},
		"needle_requests": {Matches: 1, SkippedFrac: 0.99, AvgActiveFlows: 1},
		"clamav_enum":     {Matches: 1, AvgActiveFlows: 2.1, CutRange: 600},
	}
	for name, s := range good {
		if err := s.guard(name); err != nil {
			t.Errorf("good shape refused: %v", err)
		}
		s.Matches = 0
		if err := s.guard(name); err == nil {
			t.Errorf("%s: no matches accepted", name)
		}
	}
	for name, s := range map[string]shape{
		"snort_sparse":    {Matches: 1, SkippedFrac: 0.5},
		"dotstar_dense":   {Matches: 1, SkippedFrac: 0.5, AvgFrontier: 180},
		"needle_requests": {Matches: 1, SkippedFrac: 0.99, AvgActiveFlows: 3},
		"clamav_enum":     {Matches: 1, AvgActiveFlows: 1, CutRange: 600},
	} {
		if err := s.guard(name); err == nil {
			t.Errorf("%s: wrong shape %+v accepted", name, s)
		}
	}
}

// The rendered text must mean what the structured rule means; stdlib regexp
// reads the same subset, so an instance of a rule must match its rendering.
func TestRenderMatchesInstances(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, pat := range w.patterns {
			if _, err := regexp.Compile("(?s)" + pat); err != nil {
				t.Errorf("%s: %q does not parse: %v", name, pat, err)
			}
		}
	}
	r := append(lit([]byte("a.b")), lineGap(), elem{set: []byte("xyz"), min: 2, max: 4}, gap(3, 3), gap(0, -1))
	if got, want := r.render(), `a\x2eb[^\x0a]*[xyz]{2,4}.{3}.*`; got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
}

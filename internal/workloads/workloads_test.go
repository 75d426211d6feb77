package workloads

import (
	"testing"

	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/nfa"
)

func TestRegistry(t *testing.T) {
	specs := All()
	if len(specs) != 19 {
		t.Fatalf("got %d benchmarks, want 19 (Table 1)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate benchmark %q", s.Name)
		}
		seen[s.Name] = true
		if s.Suite != "Regex" && s.Suite != "ANMLZoo" {
			t.Errorf("%s: bad suite %q", s.Name, s.Suite)
		}
		if s.PaperStates <= 0 || s.PaperHalfCores <= 0 {
			t.Errorf("%s: missing paper characteristics", s.Name)
		}
	}
	if _, err := Get("Snort"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("NoSuch"); err == nil {
		t.Fatal("Get(NoSuch) succeeded")
	}
	if specs[0].Name != "Dotstar03" {
		t.Fatalf("All() starts with %q, want Dotstar03 (Table 1 order)", specs[0].Name)
	}
}

func TestBuildScaleValidation(t *testing.T) {
	s, _ := Get("ExactMatch")
	for _, scale := range []float64{0, -1, 1.5} {
		if _, err := s.Build(scale, 1); err == nil {
			t.Errorf("Build(scale=%v) succeeded", scale)
		}
	}
}

// TestBuildAllSmall builds every benchmark at tiny scale, checks basic
// structure, and verifies determinism.
func TestBuildAllSmall(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			n, err := s.Build(0.02, 42)
			if err != nil {
				t.Fatal(err)
			}
			if n.Len() == 0 {
				t.Fatal("empty automaton")
			}
			st := n.ComputeStats()
			if st.Reporting == 0 {
				t.Fatal("no reporting states")
			}
			if st.CCs < 1 {
				t.Fatal("no components")
			}
			// Deterministic for equal seeds.
			n2, err := s.Build(0.02, 42)
			if err != nil {
				t.Fatal(err)
			}
			if n2.Len() != n.Len() || n2.Edges() != n.Edges() {
				t.Fatalf("non-deterministic build: %d/%d vs %d/%d states/edges",
					n.Len(), n.Edges(), n2.Len(), n2.Edges())
			}
			// Trace generation works and is deterministic.
			tr := s.Trace(n, 2048, 7)
			tr2 := s.Trace(n, 2048, 7)
			if len(tr) != 2048 {
				t.Fatalf("trace length %d", len(tr))
			}
			if string(tr) != string(tr2) {
				t.Fatal("non-deterministic trace")
			}
			// The trace must exercise the automaton (pm-walk guarantee),
			// except for workloads whose reports are rare by construction.
			res := engine.Run(n, tr)
			if res.Transitions == 0 {
				t.Error("trace drives no transitions")
			}
		})
	}
}

// TestPAPCorrectOnWorkloads runs the full PAP pipeline on every benchmark
// at tiny scale and requires exact composition.
func TestPAPCorrectOnWorkloads(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			n, err := s.Build(0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Trace(n, 1<<14, 2)
			cfg := core.DefaultConfig(1)
			cfg.Workers = 2
			cfg.HalfCoresOverride = s.PaperHalfCores
			res, err := core.Run(n, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckCorrect(); err != nil {
				t.Fatal(err)
			}
			if res.Speedup < 1 {
				t.Fatalf("speedup %v < 1", res.Speedup)
			}
		})
	}
}

// TestStructuralShapes spot-checks the structural profiles that drive the
// paper's optimizations.
func TestStructuralShapes(t *testing.T) {
	// ExactMatch/Ranges: the newline delimiter labels no state, so its
	// range is ~0 — the "Range = 1" rows of Table 1.
	em, _ := Get("ExactMatch")
	n, err := em.Build(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := n.RangeSize('\n'); r != 0 {
		t.Errorf("ExactMatch range('\\n') = %d, want 0", r)
	}

	// Dotstar: .* self-loop states make the delimiter's range grow with
	// the dotstar fraction.
	d3, _ := Get("Dotstar03")
	d9, _ := Get("Dotstar09")
	n3, err := d3.Build(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	n9, err := d9.Build(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n3.RangeSize('\n') >= n9.RangeSize('\n') {
		t.Errorf("range('\\n'): Dotstar03 %d !< Dotstar09 %d",
			n3.RangeSize('\n'), n9.RangeSize('\n'))
	}

	// Hamming: almost every state is reachable on any DNA symbol.
	hm, _ := Get("Hamming")
	nh, err := hm.Build(0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := nh.RangeSize('A'); r < nh.Len()/2 {
		t.Errorf("Hamming range('A') = %d of %d states, want > half", r, nh.Len())
	}

	// Levenshtein: few, dense components.
	lv, _ := Get("Levenshtein")
	nl, err := lv.Build(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ccs := nl.ConnectedComponents(); ccs != 4 {
		t.Errorf("Levenshtein CCs = %d, want 4", ccs)
	}

	// SPM: one component per candidate sequence.
	sp, _ := Get("SPM")
	ns, err := sp.Build(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ccs := ns.ConnectedComponents(); ccs < 40 {
		t.Errorf("SPM CCs = %d, want ~#patterns", ccs)
	}
}

// TestHammingSemantics verifies the hand-built Hamming lattice against a
// brute-force mismatch count.
func TestHammingSemantics(t *testing.T) {
	b := nfa.NewBuilder("test")
	pattern := []byte("ACGTACGT")
	BuildHammingLattice(b, pattern, 2, 0)
	n := b.MustBuild()

	check := func(window []byte) bool {
		mism := 0
		for i := range pattern {
			if window[i] != pattern[i] {
				mism++
			}
		}
		return mism <= 2
	}
	inputs := []string{
		"ACGTACGT", // exact
		"ACGAACGT", // 1 mismatch
		"TCGAACGT", // 2
		"TCGAACGA", // 3 -> reject
		"GGGGACGT", // 4 -> reject
	}
	for _, in := range inputs {
		res := engine.Run(n, []byte(in))
		got := len(res.Reports) > 0
		want := check([]byte(in))
		if got != want {
			t.Errorf("input %s: matched=%v, want %v", in, got, want)
		}
	}
}

// TestLevenshteinSemantics verifies the homogenized Levenshtein automaton
// against a brute-force edit-distance computation over window endings.
func TestLevenshteinSemantics(t *testing.T) {
	b := nfa.NewBuilder("test")
	pattern := []byte("ACGTAC")
	if err := BuildLevenshtein(b, pattern, 1, 0); err != nil {
		t.Fatal(err)
	}
	n := b.MustBuild()

	cases := []struct {
		in   string
		want bool // some substring within edit distance 1 of pattern
	}{
		{"ACGTAC", true},  // exact
		{"ACGAC", true},   // one deletion
		{"ACGGTAC", true}, // one insertion
		{"ACGTTC", true},  // one substitution
		{"AGGTTC", false}, // two substitutions
		{"TTTTTT", false},
	}
	for _, c := range cases {
		res := engine.Run(n, []byte(c.in))
		if got := len(res.Reports) > 0; got != c.want {
			t.Errorf("input %s: matched=%v, want %v", c.in, got, c.want)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/regex"
)

func testConfig(ranks int) Config {
	cfg := DefaultConfig(ranks)
	cfg.Workers = 2
	return cfg
}

func mustCompile(t *testing.T, patterns ...string) *nfa.NFA {
	t.Helper()
	n, err := regex.CompilePatterns("test", patterns)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// genInput builds an input with embedded pattern occurrences and frequent
// delimiter symbols for cutting.
func genInput(rng *rand.Rand, size int, inject []string) []byte {
	out := make([]byte, 0, size)
	alpha := []byte("abcdefgh \n")
	for len(out) < size {
		if len(inject) > 0 && rng.Intn(12) == 0 {
			out = append(out, inject[rng.Intn(len(inject))]...)
			continue
		}
		out = append(out, alpha[rng.Intn(len(alpha))])
	}
	return out[:size]
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Ranks: 0, TDMQuantum: 8, ConvergenceEvery: 1},
		{Ranks: 9, TDMQuantum: 8, ConvergenceEvery: 1},
		{Ranks: 1, TDMQuantum: 0, ConvergenceEvery: 1},
		{Ranks: 1, TDMQuantum: 8, ConvergenceEvery: 0},
		{Ranks: 1, TDMQuantum: 8, ConvergenceEvery: 1, SwitchCycles: -1},
		{Ranks: 1, TDMQuantum: 8, ConvergenceEvery: 1, CutSymbol: 300},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("case %d: config %+v validated", i, c)
		}
	}
	good := DefaultConfig(1)
	if err := good.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if good.Workers < 1 {
		t.Fatal("default Workers < 1")
	}
}

func TestPlanBasics(t *testing.T) {
	n := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(1))
	input := genInput(rng, 8192, []string{"abc", "xyz"})
	cfg := testConfig(1)
	p, err := NewPlan(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2", p.Segments)
	}
	if len(p.Cuts) != p.Segments-1 {
		t.Fatalf("cuts %d for %d segments", len(p.Cuts), p.Segments)
	}
	for i := 1; i < len(p.Cuts); i++ {
		if p.Cuts[i] <= p.Cuts[i-1] {
			t.Fatalf("cuts not increasing: %v", p.Cuts)
		}
	}
	sp := p.SymbolPlanFor(p.CutSym)
	if sp.RangeSize < 0 || len(sp.Flows) > len(sp.Units) && len(sp.Units) > 0 {
		t.Fatalf("suspicious plan: range=%d flows=%d units=%d", sp.RangeSize, len(sp.Flows), len(sp.Units))
	}
	if p.MaxFlows() < 1 {
		t.Fatal("MaxFlows < 1")
	}
}

func TestPlanErrors(t *testing.T) {
	n := mustCompile(t, "abc")
	if _, err := NewPlan(n, nil, testConfig(1)); err == nil {
		t.Error("empty input accepted")
	}
	bad := testConfig(1)
	bad.Ranks = 0
	if _, err := NewPlan(n, []byte("x"), bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCutPositions(t *testing.T) {
	input := []byte("aaaXaaaXaaaXaaaX") // X at 3,7,11,15
	cuts, exact := cutPositions(input, 'X', 4)
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v", cuts)
	}
	for _, c := range cuts {
		if input[c-1] != 'X' {
			t.Fatalf("cut %d not after X", c)
		}
	}
	if exact != 3 {
		t.Fatalf("exact = %d", exact)
	}
	// No occurrences: falls back to ideal positions.
	cuts2, exact2 := cutPositions([]byte("aaaaaaaaaaaaaaaa"), 'X', 4)
	if len(cuts2) != 3 || exact2 != 0 {
		t.Fatalf("fallback cuts = %v exact=%d", cuts2, exact2)
	}
	if cuts2[0] != 4 || cuts2[1] != 8 || cuts2[2] != 12 {
		t.Fatalf("fallback positions = %v", cuts2)
	}
	// One segment: no cuts.
	if c, _ := cutPositions(input, 'X', 1); c != nil {
		t.Fatalf("single segment cuts = %v", c)
	}
}

func TestChooseCutSymbolPrefersSmallRange(t *testing.T) {
	// 'z' appears in no pattern (range 0); 'a' starts patterns (range > 0).
	n := mustCompile(t, "abc", "aXc")
	var freq [256]int
	freq['z'] = 100
	freq['a'] = 100
	sym := chooseCutSymbol(n, freq, 4)
	if sym != 'z' {
		t.Fatalf("chose %q, want 'z' (range %d vs %d)", sym, n.RangeSize(sym), n.RangeSize('z'))
	}
}

func TestBuildSymbolPlanShapes(t *testing.T) {
	// Automaton from the paper's Figure 5 shape: two parents with
	// overlapping child sets.
	b := nfa.NewBuilder("fig5")
	s0 := b.AddState(nfa.ClassOf('a'), nfa.StartOfData)
	s1 := b.AddState(nfa.ClassOf('a'), nfa.StartOfData)
	c2 := b.AddState(nfa.ClassOf('x'), 0)
	c5 := b.AddState(nfa.ClassOf('x'), 0)
	c17 := b.AddState(nfa.ClassOf('x'), 0)
	c18 := b.AddState(nfa.ClassOf('x'), 0)
	c46 := b.AddState(nfa.ClassOf('x'), 0)
	for _, c := range []nfa.StateID{c2, c5, c46} {
		b.AddEdge(s0, c)
	}
	for _, c := range []nfa.StateID{c17, c18, c46} {
		b.AddEdge(s1, c)
	}
	n := b.MustBuild()

	cfg := testConfig(1)
	sp := buildSymbolPlan(n, 'a', cfg)
	if sp.RangeSize != 5 {
		t.Fatalf("range = %d, want 5", sp.RangeSize)
	}
	if len(sp.Units) != 2 {
		t.Fatalf("units = %d, want 2 (one per parent)", len(sp.Units))
	}
	// One CC, so flows = units.
	if len(sp.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(sp.Flows))
	}
	// S46 must be in both units.
	for _, u := range sp.Units {
		found := false
		for _, q := range u.Seed {
			if q == c46 {
				found = true
			}
		}
		if !found {
			t.Fatalf("unit %v missing shared child", u.Seed)
		}
	}

	// Ablations.
	cfg.DisableParentMerge = true
	sp2 := buildSymbolPlan(n, 'a', cfg)
	if len(sp2.Units) != 5 {
		t.Fatalf("per-state units = %d, want 5", len(sp2.Units))
	}
	cfg.DisableCCMerge = true
	sp3 := buildSymbolPlan(n, 'a', cfg)
	if len(sp3.Flows) != len(sp3.Units) {
		t.Fatalf("no-CC flows = %d, units = %d", len(sp3.Flows), len(sp3.Units))
	}
}

func TestCCPackingSharesFlows(t *testing.T) {
	// Two disjoint patterns: their units must share flows.
	n := mustCompile(t, "XabY", "XcdY")
	cfg := testConfig(1)
	sp := buildSymbolPlan(n, 'X', cfg)
	if sp.RangeSize != 2 {
		t.Fatalf("range = %d, want 2", sp.RangeSize)
	}
	if len(sp.Units) != 2 {
		t.Fatalf("units = %d, want 2", len(sp.Units))
	}
	if len(sp.Flows) != 1 {
		t.Fatalf("flows = %d, want 1 (CC merging)", len(sp.Flows))
	}
	if len(sp.Flows[0].Units) != 2 {
		t.Fatalf("flow units = %v", sp.Flows[0].Units)
	}
}

func TestRunCorrectSmall(t *testing.T) {
	n := mustCompile(t, "abc", "a.c", "xy+z")
	rng := rand.New(rand.NewSource(7))
	input := genInput(rng, 4096, []string{"abc", "xyz", "xyyyz"})
	for _, ranks := range []int{1, 4} {
		res, err := Run(n, input, testConfig(ranks))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		if res.Speedup < 1 {
			t.Fatalf("ranks %d: speedup %v < 1", ranks, res.Speedup)
		}
		if res.IdealSpeedup < res.Speedup-1e-9 {
			t.Fatalf("ranks %d: speedup %v exceeds ideal %v", ranks, res.Speedup, res.IdealSpeedup)
		}
		if len(res.Segments) != res.Plan.Segments {
			t.Fatalf("segment stats = %d, want %d", len(res.Segments), res.Plan.Segments)
		}
	}
}

func TestRunSingleSegmentDegenerates(t *testing.T) {
	n := mustCompile(t, "ab")
	cfg := testConfig(1)
	cfg.MaxSegments = 1
	res, err := Run(n, []byte("xxabxxabxx"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup != 1 || !res.Correct {
		t.Fatalf("degenerate run: speedup=%v correct=%v", res.Speedup, res.Correct)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

func TestRunTinyInput(t *testing.T) {
	n := mustCompile(t, "ab")
	res, err := Run(n, []byte("ab"), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Reports) != 1 {
		t.Fatalf("tiny input: %+v", res.Reports)
	}
}

// TestEquivalenceRandom is the central property: for random rulesets,
// random inputs, random segment counts and all ablations, the composed PAP
// reports equal sequential execution.
func TestEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pats := [][]string{
		{"abc", "bca", "cab"},
		{"a.c", "ab+c", "ca{2,4}b"},
		{"hello", "help", "hero", "x[yz]+w"},
		{"^start", "end", "(ab|cd)+e"},
	}
	for trial := 0; trial < 12; trial++ {
		ps := pats[trial%len(pats)]
		n := mustCompile(t, ps...)
		input := genInput(rng, 1024+rng.Intn(4096), []string{"abc", "hello", "start", "abe", "xyzw", "end"})
		cfg := testConfig(1 + 3*(trial%2))
		cfg.TDMQuantum = []int{8, 32, 64}[trial%3]
		cfg.ConvergenceEvery = 1 + trial%10
		switch trial % 6 {
		case 1:
			cfg.DisableCCMerge = true
		case 2:
			cfg.DisableParentMerge = true
		case 3:
			cfg.DisableConvergence = true
		case 4:
			cfg.DisableDeactivation = true
		case 5:
			cfg.DisableFIV = true
		}
		res, err := Run(n, input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("trial %d (%v, quantum %d): %v", trial, ps, cfg.TDMQuantum, err)
		}
	}
}

// TestEquivalenceRandomNFA repeats the property on structurally random
// automata (not regex-derived), including self-loops and dense CCs.
func TestEquivalenceRandomNFA(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		n := randomNFA(rng, 4+rng.Intn(40))
		input := make([]byte, 512+rng.Intn(2048))
		for i := range input {
			input[i] = "abcd"[rng.Intn(4)]
		}
		cfg := testConfig(1)
		cfg.TDMQuantum = 16
		cfg.MaxSegments = 2 + rng.Intn(8)
		res, err := Run(n, input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func randomNFA(rng *rand.Rand, states int) *nfa.NFA {
	b := nfa.NewBuilder("rand")
	alpha := []byte("abcd")
	for i := 0; i < states; i++ {
		var cls nfa.Class
		for _, s := range alpha {
			if rng.Intn(3) == 0 {
				cls.Add(s)
			}
		}
		if cls.Empty() {
			cls.Add(alpha[rng.Intn(len(alpha))])
		}
		var flags nfa.Flags
		switch rng.Intn(6) {
		case 0:
			flags |= nfa.AllInput
		case 1:
			flags |= nfa.StartOfData
		}
		if rng.Intn(5) == 0 {
			flags |= nfa.Report
		}
		b.AddState(cls, flags)
	}
	b.SetFlags(0, nfa.StartOfData)
	for i := 0; i < states; i++ {
		for k := 0; k < rng.Intn(4); k++ {
			b.AddEdge(nfa.StateID(i), nfa.StateID(rng.Intn(states)))
		}
	}
	return b.MustBuild()
}

func TestSpeedupScalesWithSegments(t *testing.T) {
	// A small-range benchmark should speed up nearly linearly with
	// segments: delimiter 'z' never appears in patterns.
	n := mustCompile(t, "abc", "def")
	rng := rand.New(rand.NewSource(5))
	input := make([]byte, 1<<17)
	for i := range input {
		if rng.Intn(10) == 0 {
			input[i] = 'z'
		} else {
			input[i] = "abcdef"[rng.Intn(6)]
		}
	}
	cfg1 := testConfig(1)
	res1, err := Run(n, input, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := testConfig(4)
	res4, err := Run(n, input, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if err := res1.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
	if err := res4.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
	if res1.Speedup < float64(res1.Plan.Segments)/2 {
		t.Fatalf("1-rank speedup %v too far below ideal %d", res1.Speedup, res1.Plan.Segments)
	}
	if res4.Speedup <= res1.Speedup {
		t.Fatalf("4-rank speedup %v not above 1-rank %v", res4.Speedup, res1.Speedup)
	}
}

func TestGoldenExecutionBound(t *testing.T) {
	// Even in the worst case (huge ranges, no convergence), PAP must never
	// report a slowdown thanks to the golden-execution fallback.
	rng := rand.New(rand.NewSource(31))
	n := randomNFA(rng, 30)
	input := make([]byte, 8192)
	for i := range input {
		input[i] = "abcd"[rng.Intn(4)]
	}
	cfg := testConfig(1)
	cfg.DisableConvergence = true
	cfg.DisableDeactivation = true
	cfg.DisableFIV = true
	res, err := Run(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 1 {
		t.Fatalf("speedup %v < 1 despite golden-execution bound", res.Speedup)
	}
	if err := res.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
}

func TestForcedCutSymbol(t *testing.T) {
	n := mustCompile(t, "ab")
	cfg := testConfig(1)
	cfg.CutSymbol = 'q'
	input := []byte("ababqababqababqababqababqababqababqababqababqababqababqababqababq")
	res, err := Run(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.CutSym != 'q' {
		t.Fatalf("CutSym = %q", res.Plan.CutSym)
	}
	if err := res.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
}

func TestHalfCoresOverride(t *testing.T) {
	n := mustCompile(t, "ab")
	cfg := testConfig(1)
	cfg.HalfCoresOverride = 4
	p, err := NewPlan(n, make([]byte, 4096), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Placement.HalfCores != 4 || p.Placement.Devices != 2 {
		t.Fatalf("placement = %+v", p.Placement)
	}
	if p.Segments > 4 { // 16 half-cores / 4 per replica
		t.Fatalf("segments = %d", p.Segments)
	}
}

func TestStatsPopulated(t *testing.T) {
	n := mustCompile(t, "abc", "def")
	rng := rand.New(rand.NewSource(17))
	input := genInput(rng, 16384, []string{"abc", "def"})
	res, err := Run(n, input, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineCycles <= 0 || res.TotalCycles <= 0 {
		t.Fatal("cycle counts not populated")
	}
	if res.TransitionRatio < 1 {
		t.Fatalf("transition ratio %v < 1 (false paths add transitions)", res.TransitionRatio)
	}
	if res.ReportIncrease < 1 {
		t.Fatalf("report increase %v < 1", res.ReportIncrease)
	}
	if res.AvgActiveFlows < 1 {
		t.Fatalf("avg active flows %v < 1", res.AvgActiveFlows)
	}
	for _, s := range res.Segments[1:] {
		if s.InitFlows < 1 || s.Rounds < 1 {
			t.Fatalf("segment stats empty: %+v", s)
		}
	}
}

func TestHostDecodeCyclesModel(t *testing.T) {
	small := hostDecodeCycles(1, 10, 2)
	big := hostDecodeCycles(2, 10000, 400)
	if small <= ap.SVTransferCycles {
		t.Fatalf("hostDecode too small: %d", small)
	}
	if big <= small {
		t.Fatalf("host model not monotone: %d vs %d", big, small)
	}
	if got := hostDecodeCycles(0, 0, 0); got < ap.SVTransferCycles {
		t.Fatalf("zero-device decode = %d", got)
	}
}

func TestBaselineCycles(t *testing.T) {
	if got := Baseline(1000, 10); got != 1020 {
		t.Fatalf("Baseline = %d, want 1020", got)
	}
}

func TestUnitTruth(t *testing.T) {
	sp := &SymbolPlan{Units: []Unit{
		{Seed: []nfa.StateID{1, 2}, seedCheck: []nfa.StateID{1, 2}},
		{Seed: []nfa.StateID{3}, seedCheck: []nfa.StateID{3}},
		{Seed: []nfa.StateID{9}}, // all-baseline unit: never "true"
	}}
	b := engine.Boundary{Enabled: []nfa.StateID{1, 2, 4}}
	truth := unitTruth(sp, b)
	if !truth[0] || truth[1] || truth[2] {
		t.Fatalf("truth = %v", truth)
	}
}

func TestAttribTrue(t *testing.T) {
	unitTrue := []bool{true, false}
	attrib := []attribEntry{
		{CC: 0, Unit: 0, From: 100},
		{CC: 1, Unit: 1, From: 0},
		{CC: 2, Unit: -1, From: 50},
	}
	cases := []struct {
		cc   int32
		off  int64
		want bool
	}{
		{0, 150, true},  // true unit, after From
		{0, 50, false},  // before From
		{1, 500, false}, // false unit
		{2, 60, true},   // always-true entry
		{2, 40, false},  // always-true but before From
		{3, 999, false}, // no entry for CC
	}
	for i, c := range cases {
		if got := attribTrue(attrib, unitTrue, c.cc, c.off); got != c.want {
			t.Errorf("case %d: attribTrue = %v, want %v", i, got, c.want)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// TestConfigRejectsUnknownMode: a Mode past the last strategy fails
// validation.
func TestConfigRejectsUnknownMode(t *testing.T) {
	cfg := testConfig(1)
	cfg.Mode = maxMode + 1
	if err := cfg.validate(); err == nil {
		t.Fatal("out-of-range Mode validated")
	}
}

// TestSFAModeExact: SFA composition must reproduce the sequential report
// set on pattern workloads, under both schedulers and several segment
// counts, and must actually run mapping flows (SFAMappings > 0 whenever
// there is enumeration work).
func TestSFAModeExact(t *testing.T) {
	n := mustCompile(t, "abc", "abd", "a.c", "xyz+")
	rng := rand.New(rand.NewSource(21))
	input := genInput(rng, 1<<14, []string{"abc", "abd", "xyz"})
	for _, segs := range []int{2, 4, 8} {
		for _, parallel := range []bool{false, true} {
			cfg := testConfig(4)
			cfg.MaxSegments = segs
			cfg.SegmentParallel = parallel
			cfg.Mode = ModeSFA
			res, err := Run(n, input, cfg)
			if err != nil {
				t.Fatalf("segs=%d parallel=%v: %v", segs, parallel, err)
			}
			if err := res.CheckCorrect(); err != nil {
				t.Fatalf("segs=%d parallel=%v: %v", segs, parallel, err)
			}
			if res.Plan.Cfg.Mode != ModeSFA {
				t.Fatalf("Mode = %v, want sfa", res.Plan.Cfg.Mode)
			}
			if res.Plan.Segments > 1 && res.SFAMappings == 0 {
				t.Fatalf("segs=%d: no SFA mappings ran", segs)
			}
			if res.Plan.Segments > 1 && res.SFAComposeOps == 0 {
				t.Fatalf("segs=%d: no compose ops recorded", segs)
			}
			for _, ss := range res.Segments {
				if ss.FIVApplied || ss.FIVKills != 0 {
					t.Fatalf("segment %d saw FIV traffic in SFA mode: %+v", ss.Index, ss)
				}
			}
		}
	}
}

// TestSFAModeMatchesFlowMode: both modes must agree on reports — and on
// every unit-truth decision, which the report comparison implies — across
// random NFAs, inputs and configs.
func TestSFAModeMatchesFlowMode(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < trials; trial++ {
		n := randomNFA(rng, 4+rng.Intn(24))
		input := make([]byte, 512+rng.Intn(1<<13))
		alpha := []byte("abcd")
		for i := range input {
			input[i] = alpha[rng.Intn(len(alpha))]
		}
		cfg := testConfig(1 + rng.Intn(4))
		cfg.Workers = 1 + rng.Intn(4)
		cfg.TDMQuantum = 8 << rng.Intn(4)
		cfg.ConvergenceEvery = 1 + rng.Intn(12)
		cfg.AbsorbDeactivation = rng.Intn(4) != 0
		cfg.SegmentParallel = rng.Intn(2) == 0

		flows := cfg
		flows.Mode = ModeFlows
		sfa := cfg
		sfa.Mode = ModeSFA
		rf, err := Run(n, input, flows)
		if err != nil {
			t.Fatalf("trial %d: flows: %v", trial, err)
		}
		rs, err := Run(n, input, sfa)
		if err != nil {
			t.Fatalf("trial %d: sfa: %v", trial, err)
		}
		if err := rf.CheckCorrect(); err != nil {
			t.Fatalf("trial %d: flows incorrect: %v", trial, err)
		}
		if err := rs.CheckCorrect(); err != nil {
			t.Fatalf("trial %d: sfa incorrect: %v", trial, err)
		}
		if !engine.SameReports(rf.Reports, rs.Reports) {
			t.Fatalf("trial %d: modes disagree: %d vs %d reports", trial, len(rf.Reports), len(rs.Reports))
		}
	}
}

// TestSFASchedulerParity: within SFA mode, the serial and parallel
// schedulers must produce bit-identical modelled metrics, exactly like
// flow mode (the composition pass runs after the scheduler joins, so it
// cannot observe interleaving).
func TestSFASchedulerParity(t *testing.T) {
	n, input := patternCase(t)
	for _, v := range sfaVariants {
		cfg := testConfig(4)
		cfg.Mode = ModeSFA
		v.mutate(&cfg)
		runBoth(t, "sfa-"+v.name, n, input, cfg)
	}
}

var sfaVariants = []configVariant{
	{"default", func(*Config) {}},
	{"workers1", func(c *Config) { c.Workers = 1 }},
	{"workers2", func(c *Config) { c.Workers = 2 }}, // the golden run and one driver
	{"workers3", func(c *Config) { c.Workers = 3 }},
	{"quantum8", func(c *Config) { c.TDMQuantum = 8 }},
	{"no-convergence", func(c *Config) { c.DisableConvergence = true }},
	{"no-absorb", func(c *Config) { c.AbsorbDeactivation = false }},
	{"bit-engine", func(c *Config) { c.Engine = engine.BitKind }},
}

// TestSFASingleSegmentIdentity: a single-segment plan never composes —
// the identity composition degenerates to the golden run, with no
// mappings, no compose ops, and exact reports.
func TestSFASingleSegmentIdentity(t *testing.T) {
	n := mustCompile(t, "abc")
	cfg := testConfig(1)
	cfg.MaxSegments = 1
	cfg.Mode = ModeSFA
	res, err := Run(n, []byte("zzabczz"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
	if res.Plan.Segments != 1 {
		t.Fatalf("Segments = %d, want 1", res.Plan.Segments)
	}
	if res.Plan.Cfg.Mode != ModeSFA {
		t.Fatalf("Mode = %v, want sfa", res.Plan.Cfg.Mode)
	}
	if res.SFAMappings != 0 || res.SFAComposeOps != 0 {
		t.Fatalf("degenerate run recorded SFA work: %d mappings, %d ops",
			res.SFAMappings, res.SFAComposeOps)
	}
}

// TestSFATinyInputs mirrors TestRunTinyInputs under SFA mode: degenerate
// and near-degenerate inputs must stay exact, never panic.
func TestSFATinyInputs(t *testing.T) {
	n := edgeNFA(t)
	for _, tc := range []struct {
		name  string
		input string
		segs  int
	}{
		{"one-byte", "b", 4},
		{"shorter-than-k", "abab", 16},
		{"equal-to-k", "abababab", 8},
		{"boundary-heavy", "xyababab", 7},
	} {
		cfg := DefaultConfig(1)
		cfg.MaxSegments = tc.segs
		cfg.TDMQuantum = 2
		cfg.Workers = 1
		cfg.Mode = ModeSFA
		res, err := Run(n, []byte(tc.input), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestSFAZeroLengthSegment: a hand-built degenerate segment (Start == End)
// must compose as the identity mapping — its exit is exactly its entry
// seeds — so a successor's truth derived from it matches flow mode's.
func TestSFAZeroLengthSegment(t *testing.T) {
	n := mustCompile(t, "abc")
	input := []byte("abcabcabc")
	cfg := testConfig(1)
	cfg.Mode = ModeSFA
	p, err := NewPlan(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg := &segmentResult{Index: 1, Start: 5, End: 5, Sym: input[4], svc: ap.NewSVC(1)}
	asg := newFlowRun(0, true)
	asg.svcID = seg.svc.AllocOverflow(nil, 0)
	seg.flows = []*flowRun{asg}
	p.execMode().seedSegment(p, seg)
	p.runSegment(seg, input)
	if seg.Rounds != 0 {
		t.Fatalf("Rounds = %d, want 0", seg.Rounds)
	}
	// Zero rounds means no Save ever ran: each class flow's SVC context is
	// still its seed, so with every unit true the exit union must equal
	// the union of the plan's unit seeds — the identity mapping.
	for ui := range seg.unitTrue {
		seg.unitTrue[ui] = true
	}
	exit := map[nfa.StateID]struct{}{}
	sfaExit(seg, exit)
	want := map[nfa.StateID]struct{}{}
	for _, u := range p.SymbolPlanFor(seg.Sym).Units {
		for _, q := range u.seedCheck {
			want[q] = struct{}{}
		}
	}
	if len(exit) != len(want) {
		t.Fatalf("identity exit has %d states, want %d", len(exit), len(want))
	}
	for q := range want {
		if _, ok := exit[q]; !ok {
			t.Fatalf("identity exit missing state %d", q)
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/regex"
)

// stripEngineSwitches zeroes the only scheduler-dependent metric: adaptive
// representation switches depend on which pool worker (and thus which
// engine instance, with its hysteresis state) picks up each flow round —
// already nondeterministic with Workers > 1 before this scheduler existed.
func stripEngineSwitches(r *Result) {
	r.EngineSwitches = 0
	for i := range r.Segments {
		r.Segments[i].EngineSwitches = 0
	}
}

// diffResults compares every modelled metric of two results and returns a
// description of the first mismatch ("" when bit-identical).
func diffResults(a, b *Result) string {
	if !engine.SameReports(a.Reports, b.Reports) {
		return fmt.Sprintf("Reports differ: %d vs %d", len(a.Reports), len(b.Reports))
	}
	type scalar struct {
		name string
		a, b interface{}
	}
	scalars := []scalar{
		{"Correct", a.Correct, b.Correct},
		{"BaselineCycles", a.BaselineCycles, b.BaselineCycles},
		{"TotalCycles", a.TotalCycles, b.TotalCycles},
		{"RawTotalCycles", a.RawTotalCycles, b.RawTotalCycles},
		{"Clamped", a.Clamped, b.Clamped},
		{"Speedup", a.Speedup, b.Speedup},
		{"IdealSpeedup", a.IdealSpeedup, b.IdealSpeedup},
		{"AvgActiveFlows", a.AvgActiveFlows, b.AvgActiveFlows},
		{"SwitchOverheadPct", a.SwitchOverheadPct, b.SwitchOverheadPct},
		{"AvgHostCycles", a.AvgHostCycles, b.AvgHostCycles},
		{"TotalEvents", a.TotalEvents, b.TotalEvents},
		{"ReportIncrease", a.ReportIncrease, b.ReportIncrease},
		{"TransitionRatio", a.TransitionRatio, b.TransitionRatio},
		{"MispredictedSegments", a.MispredictedSegments, b.MispredictedSegments},
		{"CapacityNote", a.CapacityNote, b.CapacityNote},
		{"Mode", a.Mode, b.Mode},
		{"SFAMappings", a.SFAMappings, b.SFAMappings},
		{"SFAComposeOps", a.SFAComposeOps, b.SFAComposeOps},
		{"FingerprintCollisions", a.FingerprintCollisions, b.FingerprintCollisions},
	}
	for _, s := range scalars {
		if s.a != s.b {
			return fmt.Sprintf("%s: %v vs %v", s.name, s.a, s.b)
		}
	}
	if len(a.Segments) != len(b.Segments) {
		return fmt.Sprintf("segment count: %d vs %d", len(a.Segments), len(b.Segments))
	}
	for i := range a.Segments {
		if !reflect.DeepEqual(a.Segments[i], b.Segments[i]) {
			return fmt.Sprintf("segment %d: %+v vs %+v", i, a.Segments[i], b.Segments[i])
		}
	}
	return ""
}

// runBoth executes the same (nfa, input, cfg) under the serial and the
// parallel scheduler and fails the test on any modelled-metric divergence.
func runBoth(t *testing.T, tag string, n *nfa.NFA, input []byte, cfg Config) {
	t.Helper()
	ser := cfg
	ser.SegmentParallel = false
	par := cfg
	par.SegmentParallel = true
	rs, err := Run(n, input, ser)
	if err != nil {
		t.Fatalf("%s: serial: %v", tag, err)
	}
	rp, err := Run(n, input, par)
	if err != nil {
		t.Fatalf("%s: parallel: %v", tag, err)
	}
	stripEngineSwitches(rs)
	stripEngineSwitches(rp)
	if d := diffResults(rs, rp); d != "" {
		t.Fatalf("%s: serial/parallel diverge: %s", tag, d)
	}
	if err := rp.CheckCorrect(); err != nil {
		t.Fatalf("%s: parallel incorrect: %v", tag, err)
	}
}

func TestSchedulerParityPatterns(t *testing.T) {
	n := mustCompile(t, "abc", "abd", "a.c", "xyz+")
	rng := rand.New(rand.NewSource(42))
	input := genInput(rng, 1<<15, []string{"abc", "abd", "xyz"})

	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"workers1", func(c *Config) { c.Workers = 1 }},
		{"workers8", func(c *Config) { c.Workers = 8 }},
		{"quantum8", func(c *Config) { c.TDMQuantum = 8 }},
		{"speculate", func(c *Config) { c.Speculate = true }},
		{"no-fiv", func(c *Config) { c.DisableFIV = true }},
		{"no-convergence", func(c *Config) { c.DisableConvergence = true }},
		{"no-deactivation", func(c *Config) { c.DisableDeactivation = true }},
		{"no-absorb", func(c *Config) { c.AbsorbDeactivation = false }},
		{"no-ccmerge", func(c *Config) { c.DisableCCMerge = true }},
		{"bit-engine", func(c *Config) { c.Engine = engine.BitKind }},
	}
	for _, v := range variants {
		cfg := testConfig(4)
		v.mutate(&cfg)
		runBoth(t, v.name, n, input, cfg)
	}
}

func TestSchedulerParityRandom(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		n := randomNFA(rng, 4+rng.Intn(24))
		input := make([]byte, 512+rng.Intn(1<<14))
		alpha := []byte("abcd")
		for i := range input {
			input[i] = alpha[rng.Intn(len(alpha))]
		}
		cfg := testConfig(1 + rng.Intn(4))
		cfg.Workers = 1 + rng.Intn(4)
		cfg.TDMQuantum = 8 << rng.Intn(4)
		cfg.ConvergenceEvery = 1 + rng.Intn(12)
		cfg.Speculate = rng.Intn(4) == 0
		cfg.DisableFIV = rng.Intn(5) == 0
		cfg.AbsorbDeactivation = rng.Intn(4) != 0
		runBoth(t, fmt.Sprintf("trial-%d", trial), n, input, cfg)
	}
}

// wideNFA builds the shape on which engine.Auto is the adaptive engine: a
// live fanout region of 64 'a'-labelled states (one of them all-input, two
// successors each) scattered over ~3000 states of unreachable padding. The
// padding widens the vectors without widening range('a'), so enumeration
// stays cheap; runs of 'a' multiply the frontier past the dense threshold
// and any other symbol empties it.
func wideNFA(rng *rand.Rand) *nfa.NFA {
	size := 2048 + rng.Intn(2048)
	live := rng.Perm(size)[:64]
	b := nfa.NewBuilder("wide")
	for i := 0; i < size; i++ {
		b.AddState(nfa.ClassOf('a'), 0)
	}
	b.SetFlags(nfa.StateID(live[0]), nfa.AllInput)
	for i, q := range live {
		if i%8 == 0 {
			b.SetFlags(nfa.StateID(q), nfa.Report)
			b.SetReportCode(nfa.StateID(q), int32(i))
		}
		b.AddEdge(nfa.StateID(q), nfa.StateID(live[rng.Intn(len(live))]))
		b.AddEdge(nfa.StateID(q), nfa.StateID(live[rng.Intn(len(live))]))
	}
	return b.MustBuild()
}

// TestSchedulerParityWide runs the scheduler-parity check on the automaton
// shape where the default engine switches representation mid-run (every
// other automaton in this suite is a word or two wide, where Auto is the
// bit engine outright), with the cut forced onto the hot symbol so the
// flows, not only the golden run, cross the thresholds.
func TestSchedulerParityWide(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := wideNFA(rng)
	input := make([]byte, 1<<13)
	for i := 0; i < len(input); {
		sym, run := byte('a'), 1+rng.Intn(10)
		if rng.Intn(2) == 0 {
			sym, run = 'z', 1+rng.Intn(48)
		}
		for ; run > 0 && i < len(input); run-- {
			input[i] = sym
			i++
		}
	}
	for _, v := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"cut-a", func(c *Config) { c.CutSymbol = 'a' }},
		{"cut-a-quantum8-speculate", func(c *Config) { c.CutSymbol, c.TDMQuantum, c.Speculate = 'a', 8, true }},
		{"cut-a-sfa", func(c *Config) { c.CutSymbol, c.Mode = 'a', ModeSFA }},
	} {
		cfg := testConfig(4)
		v.mutate(&cfg)
		res, err := Run(n, input, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if res.EngineSwitches == 0 {
			t.Errorf("%s: no engine switched representation; the wide shape no longer exercises the adaptive engine", v.name)
		}
		runBoth(t, v.name, n, input, cfg)
	}
}

// TestSchedulerParityRepeatedParallel guards against nondeterminism within
// the parallel scheduler itself: the same run repeated must agree with
// itself, not just with the serial path once.
func TestSchedulerParityRepeatedParallel(t *testing.T) {
	n := mustCompile(t, "abc", "abd")
	rng := rand.New(rand.NewSource(11))
	input := genInput(rng, 1<<14, []string{"abc"})
	cfg := testConfig(4)
	var first *Result
	for i := 0; i < 5; i++ {
		r, err := Run(n, input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stripEngineSwitches(r)
		if first == nil {
			first = r
			continue
		}
		if d := diffResults(first, r); d != "" {
			t.Fatalf("repeat %d diverges: %s", i, d)
		}
	}
}

// TestSymbolPlanForConcurrent is the -race regression for the unsynchronized
// lazy write SymbolPlanFor used to perform: concurrent goroutines request
// plans for symbols NewPlan did not prebuild.
func TestSymbolPlanForConcurrent(t *testing.T) {
	n := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(3))
	input := genInput(rng, 4096, []string{"abc"})
	p, err := NewPlan(n, input, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < 256; s++ {
				sym := byte((s + g*37) % 256)
				if sp := p.SymbolPlanFor(sym); sp == nil || sp.Sym != sym {
					t.Errorf("SymbolPlanFor(%d) wrong plan", sym)
					return
				}
				_ = p.MaxFlows()
			}
		}(g)
	}
	wg.Wait()
}

// TestRunSegmentZeroRounds is the NaN regression: a degenerate segment with
// Start == End runs zero rounds, and the baseline-duplication factor
// FlowRounds/Rounds used to be 0/0 = NaN, silently poisoning Transitions
// and EventsEmitted through the unspecified int64(NaN) conversion.
func TestRunSegmentZeroRounds(t *testing.T) {
	n := mustCompile(t, "abc")
	input := []byte("abcabcabc")
	p, err := NewPlan(n, input, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	seg := &segmentResult{Index: 1, Start: 5, End: 5, svc: ap.NewSVC(1)}
	asg := &flowRun{id: 0, asg: true, alive: true}
	asg.svcID = seg.svc.AllocOverflow(nil, 0)
	seg.flows = []*flowRun{asg}
	p.runSegment(seg, input, maxCycles)
	if seg.Rounds != 0 {
		t.Fatalf("Rounds = %d, want 0", seg.Rounds)
	}
	if seg.Transitions != 0 {
		t.Fatalf("Transitions = %d, want 0 (NaN conversion leaked)", seg.Transitions)
	}
	if seg.EventsEmitted != 0 {
		t.Fatalf("EventsEmitted = %d, want 0 (NaN conversion leaked)", seg.EventsEmitted)
	}
}

// BenchmarkExecuteSegments compares the serial and parallel cross-segment
// schedulers on a multi-segment plan. The parallel win scales with real
// cores (each segment goroutine feeds the shared pool); on a single-core
// host the two are expected to tie, since total simulation work is equal by
// construction (modelled metrics are bit-identical).
func BenchmarkExecuteSegments(b *testing.B) {
	n, err := regex.CompilePatterns("bench", []string{"abc", "abd", "a.c", "xyz+"})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	input := genInput(rng, 1<<18, []string{"abc", "abd", "xyz"})
	for _, segments := range []int{4, 8} {
		for _, mode := range []struct {
			name     string
			parallel bool
		}{{"serial", false}, {"parallel", true}} {
			b.Run(fmt.Sprintf("segments=%d/%s", segments, mode.name), func(b *testing.B) {
				cfg := DefaultConfig(4)
				cfg.MaxSegments = segments
				cfg.SegmentParallel = mode.parallel
				plan, err := NewPlan(n, input, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if plan.Segments < segments {
					b.Fatalf("plan built %d segments, want %d", plan.Segments, segments)
				}
				b.SetBytes(int64(len(input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := plan.Execute(input)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Correct {
						b.Fatal("incorrect result")
					}
				}
			})
		}
	}
}

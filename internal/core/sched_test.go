package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
	"pap/internal/regex"
)

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
		{"CapacityNote", a.CapacityNote, b.CapacityNote},
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
	if d := diffResults(rs, rp); d != "" {
		t.Fatalf("%s: serial/parallel diverge: %s", tag, d)
	}
	if err := rp.CheckCorrect(); err != nil {
		t.Fatalf("%s: parallel incorrect: %v", tag, err)
	}
}

// patternCase is the small ruleset and input shared by the pattern-level
// parity tests.
func patternCase(t *testing.T) (*nfa.NFA, []byte) {
	n := mustCompile(t, "abc", "abd", "a.c", "xyz+")
	rng := rand.New(rand.NewSource(42))
	return n, genInput(rng, 1<<15, []string{"abc", "abd", "xyz"})
}

func TestSchedulerParityPatterns(t *testing.T) {
	n, input := patternCase(t)
	variants := []configVariant{
		{"default", func(*Config) {}},
		{"workers1", func(c *Config) { c.Workers = 1 }},
		{"workers2", func(c *Config) { c.Workers = 2 }}, // the golden run and one driver
		{"workers3", func(c *Config) { c.Workers = 3 }},
		{"workers8", func(c *Config) { c.Workers = 8 }},
		{"quantum8", func(c *Config) { c.TDMQuantum = 8 }},
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

// randomParityCase draws one random automaton, input and configuration.
func randomParityCase(rng *rand.Rand) (*nfa.NFA, []byte, Config) {
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
	cfg.DisableFIV = rng.Intn(5) == 0
	cfg.AbsorbDeactivation = rng.Intn(4) != 0
	return n, input, cfg
}

func TestSchedulerParityRandom(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		n, input, cfg := randomParityCase(rng)
		runBoth(t, fmt.Sprintf("trial-%d", trial), n, input, cfg)
	}
}

// wideNFA builds a wide automaton whose frontier swings between a few
// states and many: a live fanout region of 64 'a'-labelled states (one of
// them all-input, two successors each) scattered over ~3000 states of
// unreachable padding. The padding widens the vectors without widening
// range('a'), so enumeration stays cheap; runs of 'a' multiply the frontier
// over many of its words, and any other symbol empties it.
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

// configVariant is one named edit of a test configuration.
type configVariant struct {
	name   string
	mutate func(*Config)
}

// wideCase is the automaton and input of TestSchedulerParityWide: runs of
// the hot symbol between longer quiet runs.
func wideCase() (*nfa.NFA, []byte) {
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
	return n, input
}

var wideVariants = []configVariant{
	{"default", func(*Config) {}},
	{"cut-a", func(c *Config) { c.CutSymbol = 'a' }},
	{"cut-a-quantum8", func(c *Config) { c.CutSymbol, c.TDMQuantum = 'a', 8 }},
	{"cut-a-sfa", func(c *Config) { c.CutSymbol, c.Mode = 'a', ModeSFA }},
}

// TestSchedulerParityWide runs the scheduler-parity check on the automaton
// shape whose frontier the bit engine carries from batch to batch as a
// sparse list of live words, and which dies and is reborn between batches
// (every other automaton in this suite is a word or two wide, where a live
// frontier always fills half the words and the step passes over them
// all), with the cut forced onto the hot symbol so the flows, not only the
// golden run, do both. wideCoverage checks that the shape still does.
func TestSchedulerParityWide(t *testing.T) {
	n, input := wideCase()
	if list, dead := wideCoverage(n, input); !list || !dead {
		t.Fatalf("batch ends over the wide case: word list %v, dead %v; want both", list, dead)
	}
	for _, v := range wideVariants {
		cfg := testConfig(4)
		v.mutate(&cfg)
		runBoth(t, v.name, n, input, cfg)
	}
}

// wideCoverage steps the default engine over input batch by batch and
// reports whether some batch ends with a live frontier on fewer than half
// the vector's words (the bit engine's next step walks the list of them)
// and some with none. The wide case latches nothing, so the bit engine's
// delta is its frontier.
func wideCoverage(n *nfa.NFA, input []byte) (list, dead bool) {
	e := engine.New(engine.Auto, n, nil)
	w := (n.Len() + 63) / 64
	var qs []nfa.StateID
	for pos := 0; pos < len(input); {
		c, _, _ := e.StepBatch(input[pos:], int64(pos), nil)
		pos += c
		qs = e.AppendFrontier(qs[:0])
		words := 0
		for i, q := range qs {
			if i == 0 || q>>6 != qs[i-1]>>6 {
				words++
			}
		}
		dead = dead || e.Dead()
		list = list || !e.Dead() && 2*words < w
	}
	return list, dead
}

// stretchBoth is the stretch ≡ single-round check: under either scheduler,
// the run that takes a sole live flow through stretches of rounds must
// agree, field for field, with the same run under a fault hook that injects
// nothing — any hook makes the round loop take one quantum per trip, so
// the hooked run is the single-round reference. It returns the unhooked
// parallel result.
func stretchBoth(t *testing.T, tag string, n *nfa.NFA, input []byte, cfg Config) *Result {
	t.Helper()
	var res *Result
	for _, parallel := range []bool{false, true} {
		cfg.SegmentParallel = parallel
		cfg.Fault = nil
		stretched, err := Run(n, input, cfg)
		if err != nil {
			t.Fatalf("%s: parallel=%v: %v", tag, parallel, err)
		}
		cfg.Fault = func(faultinject.Point) error { return nil }
		single, err := Run(n, input, cfg)
		if err != nil {
			t.Fatalf("%s: parallel=%v, hooked: %v", tag, parallel, err)
		}
		if d := diffResults(single, stretched); d != "" {
			t.Fatalf("%s: parallel=%v: single rounds and stretches diverge: %s", tag, parallel, d)
		}
		if err := stretched.CheckCorrect(); err != nil {
			t.Fatalf("%s: parallel=%v: %v", tag, parallel, err)
		}
		res = stretched
	}
	return res
}

// TestStretchParity runs stretchBoth over the generators of the scheduler
// parity tests, scored configurations, and a segment
// built to go sole-flow mid-way.
func TestStretchParity(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		n, input, cfg := randomParityCase(rng)
		stretchBoth(t, fmt.Sprintf("random-%d", trial), n, input, cfg)
	}

	n, input := wideCase()
	for _, v := range wideVariants {
		cfg := testConfig(4)
		v.mutate(&cfg)
		stretchBoth(t, "wide-"+v.name, n, input, cfg)
	}

	n, input = patternCase(t)
	for _, v := range sfaVariants {
		cfg := testConfig(4)
		cfg.Mode = ModeSFA
		v.mutate(&cfg)
		stretchBoth(t, "sfa-"+v.name, n, input, cfg)
	}
	for _, v := range []configVariant{
		{"scored", func(c *Config) { c.Scored = true }},
		{"scored-sfa", func(c *Config) { c.Scored, c.Mode = true, ModeSFA }},
	} {
		cfg := testConfig(4)
		v.mutate(&cfg)
		stretchBoth(t, v.name, n, input, cfg)
	}

	// A segment that goes sole-flow only after a deactivation mid-segment,
	// of a length the quantum does not divide: every cut falls behind an X
	// that 200 a's follow, so the one enumeration flow ("a+ is live") is
	// true, survives three sweeps, and dies in round 3 of 17; the rest of
	// the segment is one stretch of 13 rounds, the last of them 13 symbols.
	const segLen = 16*64 + 13
	n = mustCompile(t, "Xa+b", "zzb")
	input = bytes.Repeat([]byte{'z'}, 4*segLen)
	for j := 1; j < 4; j++ {
		copy(input[j*segLen-1:], "X"+strings.Repeat("a", 200)+"b")
	}
	for _, v := range []configVariant{
		{"flows", func(*Config) {}},
		{"sfa", func(c *Config) { c.Mode = ModeSFA }},
		{"scored", func(c *Config) { c.Scored = true }},
	} {
		cfg := testConfig(1)
		cfg.MaxSegments, cfg.CutSymbol = 4, 'X'
		v.mutate(&cfg)
		res := stretchBoth(t, "mid-deactivation-"+v.name, n, input, cfg)
		for _, seg := range res.Segments[1:] {
			// Rounds the enumeration flow was alive at the start of.
			enumRounds := int(math.Round(seg.AvgFlows*float64(seg.Rounds))) - seg.Rounds
			if seg.End-seg.Start != segLen || seg.Rounds != 17 || seg.InitFlows != 2 ||
				seg.Deactivations != 1 || enumRounds != 4 {
				t.Fatalf("mid-deactivation-%s: segment %d is not the shape this case is for: %+v", v.name, seg.Index, seg)
			}
		}
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

// runSegment drives one hand-built segment through the round loop on an
// engine of its own, with an FIV that never arrives and hence no golden
// run to read.
func (p *Plan) runSegment(seg *segmentResult, input []byte) {
	p.runSegmentRounds(context.Background(), seg, input, p.newEngine(), nil, serialFIV{maxCycles})
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
	asg := newFlowRun(0, true)
	asg.svcID = seg.svc.AllocOverflow(nil, 0)
	seg.flows = []*flowRun{asg}
	p.runSegment(seg, input)
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

// TestWorkersBoundsGoroutines pins what Config.Workers means under the
// parallel scheduler: at most that many goroutines simulate a run, the
// calling one among them — so one worker starts none. The hook fires on
// whichever goroutine is simulating and counts the goroutines alive then.
func TestWorkersBoundsGoroutines(t *testing.T) {
	n := mustCompile(t, "abc", "abd", "xyz")
	input := genInput(rand.New(rand.NewSource(23)), 1<<14, []string{"abc", "xyz"})
	for _, workers := range []int{1, 2, 3} {
		cfg := DefaultConfig(1)
		cfg.MaxSegments = 8
		cfg.Workers = workers
		var peak atomic.Int64
		cfg.Fault = func(faultinject.Point) error {
			alive := int64(runtime.NumGoroutine())
			for old := peak.Load(); alive > old && !peak.CompareAndSwap(old, alive); old = peak.Load() {
			}
			return nil
		}
		baseline := runtime.NumGoroutine()
		if _, err := Run(n, input, cfg); err != nil {
			t.Fatal(err)
		}
		if beside := int(peak.Load()) - baseline; beside > workers-1 {
			t.Errorf("Workers = %d: %d goroutines beside the caller, want at most %d", workers, beside, workers-1)
		}
	}
}

// TestSegmentedExecutionGuard is the regression guard on what segmenting
// costs the host: on a quiet 1 MiB input a 16-segment Execute must reach
// 0.3x the throughput of the one-segment Execute, which is the golden run
// alone. The segments redo the baseline the golden run also steps, so one
// core can reach 0.5x at best and two about 1x; with a goroutine hand-off
// per flow-round it is 0.2x. Relative, hence hardware-independent; gated
// behind PAP_BENCH_GUARD=1 because timing asserts don't belong in the
// default -race matrix.
func TestSegmentedExecutionGuard(t *testing.T) {
	if os.Getenv("PAP_BENCH_GUARD") == "" {
		t.Skip("set PAP_BENCH_GUARD=1 to run the segmented-execution regression guard")
	}
	one, input := quietPlan(t, 1<<20, 1)
	sixteen, _ := quietPlan(t, 1<<20, 16)
	// Best of interleaved rounds, after one untimed pass each: the minimum
	// is the least noisy estimator of the achievable cost.
	best := [2]time.Duration{}
	for r := -1; r < 8; r++ {
		for i, p := range []*Plan{one, sixteen} {
			start := time.Now()
			if res, err := p.Execute(input); err != nil || !res.Correct {
				t.Fatalf("Execute: %v", err)
			}
			if d := time.Since(start); r >= 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	ratio := float64(best[0]) / float64(best[1])
	t.Logf("quiet 1 MiB: 1 segment %v, 16 segments %v, ratio %.2fx", best[0], best[1], ratio)
	if ratio < 0.3 {
		t.Fatalf("16-segment Execute runs at %.2fx the one-segment Execute, below the 0.3x floor (%v vs %v)",
			ratio, best[1], best[0])
	}
}

// BenchmarkExecuteSegments compares the serial and parallel cross-segment
// schedulers on a multi-segment plan. The parallel win scales with real
// cores (each segment driver, and the golden run beside them, is a
// goroutine of its own); on a single-core host the serial scheduler is
// expected to win by the goroutine hand-offs, since total simulation work
// is equal by construction (modelled metrics are bit-identical).
func BenchmarkExecuteSegments(b *testing.B) {
	n, err := regex.CompilePatterns("bench", []string{"abc", "abd", "a.c", "xyz+"})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	input := genInput(rng, 1<<18, []string{"abc", "abd", "xyz"})
	for _, segments := range []int{4, 8, 16} {
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

package engine_test

// Differential step-test harness for the vectorized hot loop: every
// backend, driven by the cursor the run loops use, is run in lock-step
// against the scalar sparse reference — the cursor advances one window at a
// time, skipping or calling StepBatch, the reference replays the same
// window one Step at a time — and every observable is compared at each
// window boundary: frontier set, fingerprint, death, reports (with
// offsets), cumulative transitions, and the per-symbol frontier statistics
// the run loops aggregate. Cases come from the conformance generators
// (random homogeneous NFAs, adversarial inputs), extended with seeded
// mid-run frontiers, and each is checked with the baseline on and off and
// with the cursor's baseline skip enabled and ablated. A second suite
// asserts the same invisibility at the core level: both execution modes
// produce bit-identical modelled metrics with the skip on and off.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pap/internal/conformance"
	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/regex"
)

// allKinds parses engine.KindNames(), so a kind added there is covered by
// every suite in this package without an edit here.
func allKinds(t testing.TB) []engine.Kind {
	t.Helper()
	var kinds []engine.Kind
	for _, name := range engine.KindNames() {
		k, err := engine.ParseKind(name)
		if err != nil {
			t.Fatalf("KindNames lists %q, which ParseKind rejects: %v", name, err)
		}
		kinds = append(kinds, k)
	}
	return kinds
}

// stepDiffConfig is one lock-step comparison setup.
type stepDiffConfig struct {
	kind        engine.Kind
	baseline    bool
	disableSkip bool
	seed        []nfa.StateID // nil = start configuration
	window      int           // symbols offered per Advance or StepBatch call; 0 = all that remain
	// raw drives the engine by StepBatch itself, without a cursor: the
	// engine contract alone, where the window is an offer and not a stop.
	raw bool
}

func (c stepDiffConfig) String() string {
	return fmt.Sprintf("%s/baseline=%v/skipOff=%v/seeded=%v/window=%d/raw=%v",
		c.kind, c.baseline, c.disableSkip, c.seed != nil, c.window, c.raw)
}

// sortReports orders raw report events canonically; engines may emit the
// same per-symbol event set in different state orders.
func sortReports(rs []engine.Report) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Offset != rs[j].Offset {
			return rs[i].Offset < rs[j].Offset
		}
		if rs[i].State != rs[j].State {
			return rs[i].State < rs[j].State
		}
		return rs[i].Code < rs[j].Code
	})
}

func equalReports(a, b []engine.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runStepDiff locks the cursor of one configured kind (or, raw, its engine
// by StepBatch) against the scalar sparse reference over the whole input
// and fails on the first divergent observable. A twin of the same kind advanced by scalar Step rides along
// for the counters only a same-kind engine has: its Stats must equal the
// cursor's engine's, except, once the cursor has skipped, Cache, which
// records how the input was consumed rather than what it did (a skipped
// symbol looks up no cached edge). With the
// skip ablated the cursor must skip nothing but what the Meta prefilter
// does.
func runStepDiff(t *testing.T, n *nfa.NFA, tab *engine.Tables, input []byte, cfg stepDiffConfig) {
	t.Helper()
	ref := engine.New(engine.SparseKind, n, tab)
	cur := engine.NewWithOpts(cfg.kind, n, tab, engine.RunOpts{DisableBaselineSkip: cfg.disableSkip})
	sub := cur.Engine()
	twin := engine.New(cfg.kind, n, tab)
	cur.SetBaseline(cfg.baseline)
	for _, e := range []engine.Engine{ref, sub, twin} {
		e.SetBaseline(cfg.baseline)
		if cfg.seed != nil {
			e.Reset(cfg.seed)
		}
	}

	var refReports, subReports []engine.Report
	refEmit := func(r engine.Report) { refReports = append(refReports, r) }
	subEmit := func(r engine.Report) { subReports = append(subReports, r) }
	cur.Emit = subEmit
	cur.Feed(input, 0, 0)

	for i := 0; i < len(input); {
		refReports, subReports = refReports[:0], subReports[:0]
		hi := len(input)
		if cfg.window > 0 {
			hi = min(hi, i+cfg.window)
		}
		var consumed, max int
		var sum int64
		// Replay the same window on the scalar reference, accumulating the
		// per-symbol frontier statistics the run loops derive from it (the
		// cursor's maximum runs over the whole input, StepBatch's over one
		// call).
		var refSum int64
		refMax := 0
		if cfg.raw {
			consumed, sum, max = sub.StepBatch(input[i:hi], int64(i), subEmit)
			if consumed < 1 || consumed > hi-i {
				t.Fatalf("%s: StepBatch at %d consumed %d of %d", cfg, i, consumed, hi-i)
			}
		} else {
			sum0 := cur.SumFrontier
			refMax = cur.MaxFrontier
			if err := cur.Advance(context.Background(), hi); err != nil || cur.Pos() != hi {
				t.Fatalf("%s: advanced from %d to %d of %d, err %v", cfg, i, cur.Pos(), hi, err)
			}
			consumed, sum, max = hi-i, cur.SumFrontier-sum0, cur.MaxFrontier
		}
		for j := 0; j < consumed; j++ {
			ref.Step(input[i+j], int64(i+j), refEmit)
			twin.Step(input[i+j], int64(i+j), nil)
			l := ref.FrontierLen()
			refSum += int64(l)
			if l > refMax {
				refMax = l
			}
		}
		at := fmt.Sprintf("%s: window [%d,%d)", cfg, i, i+consumed)
		if sum != refSum || max != refMax {
			t.Fatalf("%s: frontier stats sum %d max %d, reference sum %d max %d",
				at, sum, max, refSum, refMax)
		}
		sortReports(refReports)
		sortReports(subReports)
		if !equalReports(refReports, subReports) {
			t.Fatalf("%s: reports %v, reference %v", at, subReports, refReports)
		}
		if got, want := sub.FrontierLen(), ref.FrontierLen(); got != want {
			t.Fatalf("%s: frontier len %d, reference %d", at, got, want)
		}
		if got, want := sub.Dead(), ref.Dead(); got != want {
			t.Fatalf("%s: dead %v, reference %v", at, got, want)
		}
		if !sub.FrontierSet().Equal(ref.FrontierSet()) {
			t.Fatalf("%s: frontier %v, reference %v", at, sub.FrontierSet(), ref.FrontierSet())
		}
		if got, want := sub.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("%s: fingerprint %#x, reference %#x", at, got, want)
		}
		if got, want := sub.Stats().Transitions, ref.Stats().Transitions; got != want {
			t.Fatalf("%s: transitions %d, reference %d", at, got, want)
		}
		if cfg.disableSkip && (cur.BaselineSkipped != 0 || cur.PrefilterSkipped != 0 && cfg.kind != engine.MetaKind) {
			t.Fatalf("%s: skip-ablated cursor skipped %d + %d symbols", at, cur.BaselineSkipped, cur.PrefilterSkipped)
		}
		got, want := sub.Stats(), twin.Stats()
		if cur.PrefilterSkipped+cur.BaselineSkipped > 0 {
			got.Cache, want.Cache = engine.CacheStats{}, engine.CacheStats{}
		}
		if got != want {
			t.Fatalf("%s: stats %+v, same kind stepped scalar %+v", at, got, want)
		}
		i += consumed
	}
}

// randomFrontier draws a random non-empty subset of the automaton's
// non-all-input states — a synthetic mid-run frontier, including shapes a
// start-configuration run may never reach (the "baseline-equal-but-not-
// identical" family: frontiers whose every member is also all-input-
// reachable yet arrived by a different path).
func randomFrontier(rng *rand.Rand, n *nfa.NFA) []nfa.StateID {
	allIn := make(map[nfa.StateID]bool)
	for _, q := range n.AllInputStates() {
		allIn[q] = true
	}
	var pool []nfa.StateID
	for q := 0; q < n.Len(); q++ {
		if !allIn[nfa.StateID(q)] {
			pool = append(pool, nfa.StateID(q))
		}
	}
	if len(pool) == 0 {
		return nil
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	k := 1 + rng.Intn(len(pool))
	seed := append([]nfa.StateID(nil), pool[:k]...)
	sort.Slice(seed, func(i, j int) bool { return seed[i] < seed[j] })
	return seed
}

// wideCaseSeed is a conformance seed of the wide profile, a vector of at
// least 16 words. Ordinary cases fit a word or two; this one keeps the
// batch kernel's sparse delta in a long vector in both harnesses below.
const wideCaseSeed = 512

// caseSeeds returns count consecutive conformance seeds from base, then
// the wide one.
func caseSeeds(t *testing.T, base int64, count int) []int64 {
	t.Helper()
	c, err := conformance.NewCase(wideCaseSeed)
	if err != nil {
		t.Fatal(err)
	}
	if w := (c.NFA.Len() + 63) / 64; w < 16 {
		t.Fatalf("conformance case %d is %d words wide; pick a seed of the wide profile", wideCaseSeed, w)
	}
	var seeds []int64
	for s := 0; s < count; s++ {
		seeds = append(seeds, base+int64(s))
	}
	return append(seeds, wideCaseSeed)
}

// TestStepDiffLockStep is the differential harness over generated cases:
// scalar vs batched vs skipping execution must agree on every observable
// at every window, for all backends, from the start configuration and from
// seeded frontiers, baseline on and off, with the cursor's skip on and off.
func TestStepDiffLockStep(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for s, caseSeed := range caseSeeds(t, 1000, seeds) {
		c, err := conformance.NewCase(caseSeed)
		if err != nil {
			t.Fatalf("case %d: %v", s, err)
		}
		tab := engine.NewTables(c.NFA)
		rng := rand.New(rand.NewSource(int64(77 + s)))
		frontiers := [][]nfa.StateID{nil, randomFrontier(rng, c.NFA), randomFrontier(rng, c.NFA)}
		for _, kind := range allKinds(t) {
			for _, disableSkip := range []bool{false, true} {
				for fi, seed := range frontiers {
					runStepDiff(t, c.NFA, tab, c.Input, stepDiffConfig{
						kind: kind, baseline: true, disableSkip: disableSkip, seed: seed,
					})
					// Baseline-off (enumeration-flow shape) needs a seed to
					// do anything; skip the start-config variant.
					if fi > 0 && seed != nil {
						runStepDiff(t, c.NFA, tab, c.Input, stepDiffConfig{
							kind: kind, baseline: false, disableSkip: disableSkip, seed: seed,
						})
					}
				}
			}
		}
	}
	// The latch-heavy profile: baseline on from the start, on and off from
	// seeded mid-run frontiers, each with the skip fast path on and off, at
	// a window either side of the batch bound.
	for s := 0; s < seeds/2; s++ {
		rng := rand.New(rand.NewSource(int64(5000 + s)))
		n, input := latchHeavyCase(t, rng)
		tab := engine.NewTables(n)
		frontiers := [][]nfa.StateID{nil, randomFrontier(rng, n)}
		for _, kind := range []engine.Kind{engine.BitKind, engine.Auto} {
			for _, disableSkip := range []bool{false, true} {
				for _, window := range []int{0, 7, 65} {
					for _, seed := range frontiers {
						for _, baseline := range []bool{true, false} {
							if !baseline && seed == nil {
								continue
							}
							runStepDiff(t, n, tab, input, stepDiffConfig{
								kind: kind, baseline: baseline, disableSkip: disableSkip, seed: seed, window: window,
							})
						}
					}
				}
			}
		}
	}
}

// latchHeavyCase is the latch-heavy profile: a dozen rules over "abcd" in
// the shapes that exercise the bit kernel's background — words joined by
// '.*' (states latched for good once their head is seen), '.*.*' (a
// latchable successor of a latched state), a reporting state right after a
// '.*', a trailing '.*' that reports and so stays out of the latch, and a
// partial-class loop that can switch off — over input that hits the heads
// early and keeps firing the tails.
func latchHeavyCase(t *testing.T, rng *rand.Rand) (*nfa.NFA, []byte) {
	t.Helper()
	word := func(max int) string {
		b := make([]byte, 1+rng.Intn(max))
		for i := range b {
			b[i] = "abcd"[rng.Intn(4)]
		}
		return string(b)
	}
	var patterns []string
	for i := 0; i < 12; i++ {
		switch i % 6 {
		case 0:
			patterns = append(patterns, word(3)+".*"+word(3))
		case 1:
			patterns = append(patterns, word(2)+".*"+word(2)+".*"+word(3))
		case 2:
			patterns = append(patterns, word(2)+".*.*"+word(2))
		case 3:
			patterns = append(patterns, word(2)+".*"+word(1))
		case 4:
			patterns = append(patterns, word(3)+".*")
		default:
			patterns = append(patterns, word(2)+"[^d]*"+word(2))
		}
	}
	n, err := regex.CompilePatterns("latch-heavy", patterns)
	if err != nil {
		t.Fatalf("%q: %v", patterns, err)
	}
	input := make([]byte, 400)
	for i := range input {
		input[i] = "abcdz"[rng.Intn(5)]
	}
	return n, input
}

// TestStepDiffExecModes asserts the baseline-skip fast path is invisible to
// both execution modes end to end: for flow enumeration and SFA function
// composition alike, a run with the fast path enabled and one with it
// ablated produce identical reports and bit-identical modelled metrics
// (the skip counters themselves excepted), under both schedulers.
func TestStepDiffExecModes(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	kinds := allKinds(t)
	for s, caseSeed := range caseSeeds(t, 4000, seeds) {
		c, err := conformance.NewCase(caseSeed)
		if err != nil {
			t.Fatalf("case %d: %v", s, err)
		}
		if len(c.Input) < 8 {
			continue
		}
		for _, mode := range []core.Mode{core.ModeFlows, core.ModeSFA} {
			for _, parallel := range []bool{false, true} {
				cfg := core.DefaultConfig(1)
				cfg.MaxSegments = 4
				cfg.TDMQuantum = 8
				cfg.Mode = mode
				cfg.SegmentParallel = parallel
				cfg.Engine = kinds[s%len(kinds)]
				if caseSeed == wideCaseSeed {
					cfg.Engine = engine.Auto
				}
				abl := cfg
				abl.DisableBaselineSkip = true

				on, err := core.Run(c.NFA, c.Input, cfg)
				if err != nil {
					t.Fatalf("case %d %v parallel=%v: %v", s, mode, parallel, err)
				}
				off, err := core.Run(c.NFA, c.Input, abl)
				if err != nil {
					t.Fatalf("case %d %v parallel=%v ablated: %v", s, mode, parallel, err)
				}
				if off.BaselineSkipped != 0 {
					t.Fatalf("case %d %v parallel=%v: ablated run skipped %d bytes",
						s, mode, parallel, off.BaselineSkipped)
				}
				onR := engine.DedupeReports(append([]engine.Report(nil), on.Reports...))
				offR := engine.DedupeReports(append([]engine.Report(nil), off.Reports...))
				if !equalReports(onR, offR) {
					t.Fatalf("case %d %v parallel=%v: reports differ with skip ablated", s, mode, parallel)
				}
				if on.TotalCycles != off.TotalCycles || on.BaselineCycles != off.BaselineCycles ||
					on.RawTotalCycles != off.RawTotalCycles || on.Speedup != off.Speedup ||
					on.TotalEvents != off.TotalEvents || on.TransitionRatio != off.TransitionRatio ||
					on.PrefilterSkipped != off.PrefilterSkipped {
					t.Fatalf("case %d %v parallel=%v: modelled metrics differ with skip ablated:\n on: cyc %d raw %d events %d\noff: cyc %d raw %d events %d",
						s, mode, parallel, on.TotalCycles, on.RawTotalCycles, on.TotalEvents,
						off.TotalCycles, off.RawTotalCycles, off.TotalEvents)
				}
				if len(on.Segments) != len(off.Segments) {
					t.Fatalf("case %d %v parallel=%v: segment count differs", s, mode, parallel)
				}
				for i := range on.Segments {
					sa, sb := on.Segments[i], off.Segments[i]
					sa.BaselineSkipped, sb.BaselineSkipped = 0, 0
					if sa != sb {
						t.Fatalf("case %d %v parallel=%v: segment %d metrics differ:\n on: %+v\noff: %+v",
							s, mode, parallel, i, sa, sb)
					}
				}
			}
		}
	}
}

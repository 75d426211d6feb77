package conformance

import (
	"context"
	"math/rand"
	"testing"

	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// TestScoredSpecsGenerated guards the guard: the generator must actually
// emit scored specs (with nonzero and negative weights) often enough, and
// the scored oracle must see nonzero report scores on some of them —
// otherwise the scored-match invariant would be vacuously green.
func TestScoredSpecsGenerated(t *testing.T) {
	scored, nonzero, negative, scoredReports := 0, 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		c, err := NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Spec.scored() {
			continue
		}
		scored++
		for _, w := range c.Spec.Weights {
			if w != 0 {
				nonzero++
			}
			if w < 0 {
				negative++
			}
		}
		for _, r := range OracleRunScored(c.NFA, c.Input) {
			if r.Score != 0 {
				scoredReports++
				break
			}
		}
	}
	if scored < 30 {
		t.Errorf("only %d/200 generated specs are scored; want roughly a third", scored)
	}
	if nonzero == 0 || negative == 0 {
		t.Errorf("weights lack variety: %d nonzero, %d negative", nonzero, negative)
	}
	if scoredReports < 10 {
		t.Errorf("only %d scored specs produced a nonzero-score report", scoredReports)
	}
}

// TestScoredAllZeroEqualsUnscored: an automaton whose every edge weight is
// zero must behave bit-for-bit like the identical unscored automaton — same
// reports (all score 0), same transition count, same frontier statistics,
// same baseline-skip behaviour — on every backend, with scoring on or off.
func TestScoredAllZeroEqualsUnscored(t *testing.T) {
	for _, seed := range []int64{3, 11, 19, 27} {
		c, err := NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		plain := c.Spec.clone()
		plain.Weights = nil
		zeroed := c.Spec.clone()
		zeroed.Weights = make([]int32, len(zeroed.Edges))
		np, err := plain.Build()
		if err != nil {
			t.Fatal(err)
		}
		nz, err := zeroed.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !nz.Scored() || np.Scored() {
			t.Fatalf("seed %d: scored flags wrong (zeroed %v, plain %v)", seed, nz.Scored(), np.Scored())
		}
		for _, kind := range engineKinds {
			ref := engine.RunEngineOpts(np, c.Input, kind, nil, engine.RunOpts{})
			// diffReports wants a canonical (deduped, sorted) reference set.
			want := engine.DedupeReports(append([]engine.Report(nil), ref.Reports...))
			for _, scored := range []bool{false, true} {
				got := engine.RunEngineOpts(nz, c.Input, kind, nil, engine.RunOpts{Scored: scored})
				if d := diffReports(want, got.Reports); d != "" {
					t.Fatalf("seed %d %s scored=%v: %s", seed, kind, scored, d)
				}
				if got.BestScore != 0 {
					t.Fatalf("seed %d %s scored=%v: best score %d, want 0", seed, kind, scored, got.BestScore)
				}
				// The scored run remaps lazydfa/meta to the bit engine's scorer,
				// whose transition accounting legitimately differs; on the
				// natively scoring backends every observable must match.
				if scored && (kind == engine.LazyDFAKind || kind == engine.MetaKind) {
					continue
				}
				if got.Transitions != ref.Transitions ||
					got.MaxFrontier != ref.MaxFrontier || got.SumFrontier != ref.SumFrontier {
					t.Fatalf("seed %d %s scored=%v: transitions %d/%d, frontier max %d/%d sum %d/%d",
						seed, kind, scored, got.Transitions, ref.Transitions,
						got.MaxFrontier, ref.MaxFrontier, got.SumFrontier, ref.SumFrontier)
				}
			}
		}
	}
}

// scoredChain builds a linear a→b→c→… automaton over the given symbols with
// the given per-edge weights (len(weights) == len(syms)-1), reporting code
// 9 at the end of the chain.
func scoredChain(t *testing.T, syms string, weights []int32) *nfa.NFA {
	t.Helper()
	b := nfa.NewBuilder("chain")
	prev := nfa.StateID(-1)
	for i := 0; i < len(syms); i++ {
		var flags nfa.Flags
		if i == 0 {
			flags = nfa.AllInput
		}
		id := b.AddState(nfa.ClassOf(syms[i]), flags)
		if i == len(syms)-1 {
			b.SetFlags(id, nfa.Report)
			b.SetReportCode(id, 9)
		}
		if prev >= 0 {
			b.AddScoredEdge(prev, id, weights[i-1])
		}
		prev = id
	}
	return b.MustBuild()
}

// TestScoredNegativeScores: a chain whose weights are all negative reports a
// negative best score, and BestReportScore must not confuse it with the 0
// sentinel-that-isn't.
func TestScoredNegativeScores(t *testing.T) {
	n := scoredChain(t, "abc", []int32{-1, -2})
	want := OracleRunScored(n, []byte("xabcx"))
	if len(want) != 1 || want[0].Score != -3 {
		t.Fatalf("oracle = %+v, want one report with score -3", want)
	}
	for _, kind := range engineKinds {
		res := engine.RunEngineOpts(n, []byte("xabcx"), kind, nil, engine.RunOpts{Scored: true})
		if d := diffReports(want, res.Reports); d != "" {
			t.Fatalf("%s: %s", kind, d)
		}
		if res.BestScore != -3 {
			t.Fatalf("%s: best score %d, want -3", kind, res.BestScore)
		}
	}
	if best, ok := engine.BestReportScore(want); !ok || best != -3 {
		t.Fatalf("BestReportScore = (%d, %v), want (-3, true)", best, ok)
	}
	if _, ok := engine.BestReportScore(nil); ok {
		t.Fatal("BestReportScore on an empty set must report not-ok")
	}
}

// TestScoredTieMaxMerge: two paths converging on the same report state must
// merge by max — both when they tie exactly and when one dominates.
func TestScoredTieMaxMerge(t *testing.T) {
	build := func(wHigh, wLow int32) *nfa.NFA {
		b := nfa.NewBuilder("diamond")
		s := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
		hi := b.AddState(nfa.ClassOf('b'), 0)
		lo := b.AddState(nfa.ClassOf('b'), 0)
		end := b.AddReportState(nfa.ClassOf('c'), 0, 5)
		b.AddScoredEdge(s, hi, wHigh)
		b.AddScoredEdge(s, lo, wLow)
		b.AddScoredEdge(hi, end, 0)
		b.AddScoredEdge(lo, end, 0)
		return b.MustBuild()
	}
	for _, tc := range []struct {
		hi, lo int32
		want   int64
	}{
		{5, 1, 5}, // dominating path wins
		{2, 2, 2}, // exact tie: merged score is the tied value
		{-1, -4, -1},
	} {
		n := build(tc.hi, tc.lo)
		oracle := OracleRunScored(n, []byte("abc"))
		if len(oracle) != 1 || oracle[0].Score != tc.want {
			t.Fatalf("weights (%d,%d): oracle = %+v, want one report scoring %d",
				tc.hi, tc.lo, oracle, tc.want)
		}
		for _, kind := range engineKinds {
			res := engine.RunEngineOpts(n, []byte("abc"), kind, nil, engine.RunOpts{Scored: true})
			if d := diffReports(oracle, res.Reports); d != "" {
				t.Fatalf("weights (%d,%d) %s: %s", tc.hi, tc.lo, kind, d)
			}
		}
	}
}

// TestScoredSegmentBoundaryExact pins the cross-boundary score carry on a
// hand-computed chain: the recorded boundary score mid-pattern equals the
// prefix sum, and a fresh engine re-seeded with (enabled, scores) finishes
// the match with the exact whole-run score.
func TestScoredSegmentBoundaryExact(t *testing.T) {
	n := scoredChain(t, "abcd", []int32{3, -1, 4}) // full-match score 6
	input := []byte("zabcdz")
	cuts := []int{3} // mid-pattern: after "zab"
	res, bounds, _, err := engine.RunWithBoundaries(
		context.Background(), n, input, cuts, engine.SparseKind, nil, engine.RunOpts{Scored: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Score != 6 {
		t.Fatalf("whole-run reports = %+v, want one scoring 6", res.Reports)
	}
	// After "zab" the sole enabled state is the 'c' state, reached via
	// a→b (+3) then b→c (-1): boundary score 2.
	if len(bounds) != 1 || len(bounds[0].Enabled) != 1 || bounds[0].Scores[0] != 2 {
		t.Fatalf("boundary = %+v, want one enabled state scoring 2", bounds[0])
	}
	for _, kind := range engineKinds {
		e := engine.New(engine.ScoringKind(kind), n, nil)
		engine.SetScoring(e, true)
		engine.ResetScoredOf(e, bounds[0].Enabled, bounds[0].Scores)
		var got []engine.Report
		for p := cuts[0]; p < len(input); p++ {
			e.Step(input[p], int64(p), func(r engine.Report) { got = append(got, r) })
		}
		if len(got) != 1 || got[0].Score != 6 {
			t.Fatalf("%s resumed reports = %+v, want one scoring 6", kind, got)
		}
	}
}

// TestScoredChunkStraddle: a scored match assembled across 2-byte stream
// chunks scores identically to the whole-input run.
func TestScoredChunkStraddle(t *testing.T) {
	n := scoredChain(t, "abcdefgh", []int32{1, 2, 3, 4, 5, 6, 7}) // full score 28
	input := []byte("zzabcdefghzz")
	want := OracleRunScored(n, input)
	if len(want) != 1 || want[0].Score != 28 {
		t.Fatalf("oracle = %+v, want one report scoring 28", want)
	}
	for _, kind := range engineKinds {
		e := engine.New(engine.ScoringKind(kind), n, nil)
		engine.SetScoring(e, true)
		var all, chunk []engine.Report
		emit := func(r engine.Report) { chunk = append(chunk, r) }
		for pos := 0; pos < len(input); pos += 2 {
			end := pos + 2
			if end > len(input) {
				end = len(input)
			}
			chunk = chunk[:0]
			for p := pos; p < end; p++ {
				e.Step(input[p], int64(p), emit)
			}
			all = append(all, engine.DedupeReports(chunk)...)
		}
		if d := diffReports(want, all); d != "" {
			t.Fatalf("%s: %s", kind, d)
		}
	}
}

// TestScoredPrefilterAblation: scored runs never use the literal prefilter
// (it is only report-exact, and a dropped doomed frontier could carry the
// best score) — requesting it alongside Scored must still be score-exact,
// and the parallel pipeline must agree with the prefilter disabled outright.
func TestScoredPrefilterAblation(t *testing.T) {
	n := scoredChain(t, "abcdef", []int32{2, 2, 2, 2, 2})
	rng := rand.New(rand.NewSource(1))
	input := make([]byte, 256)
	for i := range input {
		input[i] = "abcdefz"[rng.Intn(7)]
	}
	copy(input[100:], "abcdef")
	want := OracleRunScored(n, input)
	res := engine.RunEngineOpts(n, input, engine.MetaKind, nil,
		engine.RunOpts{Scored: true, LiteralPrefilter: true})
	if d := diffReports(want, res.Reports); d != "" {
		t.Fatalf("meta + literal prefilter + scored: %s", d)
	}

	for _, disable := range []bool{false, true} {
		cfg := core.DefaultConfig(1)
		cfg.MaxSegments = 4
		cfg.Scored = true
		cfg.DisablePrefilter = disable
		r, err := core.Run(n, input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckCorrect(); err != nil {
			t.Fatalf("DisablePrefilter=%v: %v", disable, err)
		}
		if d := diffReports(want, r.Reports); d != "" {
			t.Fatalf("DisablePrefilter=%v: %s", disable, d)
		}
	}
}

// TestScoredShrinkKeepsWeights: shrinking a scored failure keeps Weights
// parallel to Edges through state and edge removal, and shrinks toward the
// unscored/zero-weight form when scores are irrelevant to the failure.
func TestScoredShrinkKeepsWeights(t *testing.T) {
	c, err := NewCase(5)
	if err != nil {
		t.Fatal(err)
	}
	spec := c.Spec.clone()
	if !spec.scored() {
		spec.Weights = make([]int32, len(spec.Edges))
		for i := range spec.Weights {
			spec.Weights[i] = int32(i%5 - 2)
		}
	}
	// Score-independent synthetic bug: fails whenever the spec still builds
	// and the input has >= 1 byte. The shrinker should strip the weights.
	fails := func(s *NFASpec, in []byte) bool {
		if s.scored() && len(s.Weights) != len(s.Edges) {
			t.Fatalf("shrinker produced %d weights for %d edges: %s", len(s.Weights), len(s.Edges), s)
		}
		if _, err := s.Build(); err != nil {
			return false
		}
		return len(in) >= 1
	}
	shrunk, input := Shrink(spec, c.Input, fails)
	if !fails(shrunk, input) {
		t.Fatal("shrunk pair no longer fails")
	}
	if shrunk.scored() {
		t.Errorf("score-independent failure kept weights: %s", shrunk)
	}

	// Score-dependent synthetic bug: fails only while some weight is
	// negative. The shrinker must keep the spec scored.
	specNeg := spec.clone()
	hasNeg := false
	for _, w := range specNeg.Weights {
		if w < 0 {
			hasNeg = true
		}
	}
	if !hasNeg && len(specNeg.Weights) > 0 {
		specNeg.Weights[0] = -1
	}
	failsNeg := func(s *NFASpec, in []byte) bool {
		if _, err := s.Build(); err != nil {
			return false
		}
		for _, w := range s.Weights {
			if w < 0 {
				return true
			}
		}
		return false
	}
	shrunkNeg, _ := Shrink(specNeg, c.Input, failsNeg)
	if !shrunkNeg.scored() {
		t.Errorf("score-dependent failure lost its weights: %s", shrunkNeg)
	}
	if len(shrunkNeg.Weights) != len(shrunkNeg.Edges) {
		t.Errorf("shrunk weights out of sync: %d weights, %d edges", len(shrunkNeg.Weights), len(shrunkNeg.Edges))
	}
}

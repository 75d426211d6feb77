package conformance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
)

// segmentCounts are the parallel segment counts every case is checked
// under (the segment-count-invariance property: results must not depend on
// how the input is cut).
var segmentCounts = []int{2, 3, 7, 16}

// engineKinds are the execution backends every case is checked on.
var engineKinds = []engine.Kind{
	engine.SparseKind, engine.BitKind, engine.Auto,
	engine.LazyDFAKind, engine.MetaKind,
}

// Case is one generated conformance check: a random automaton and an
// adversarial input, fully determined by Seed.
type Case struct {
	Seed  int64
	Spec  *NFASpec
	NFA   *nfa.NFA
	Input []byte
}

// wideEvery is the sampling period of the wide profile: a wide case costs
// about fifteen ordinary ones, so one seed in wideEvery adds a tenth to a
// sweep while the short 1000-case sweep still draws several
// (TestSweepCoversBothRepresentations).
const wideEvery = 128

// IsWide reports whether seed's case comes from RandomWideSpec. The profile
// is a function of the seed, not a draw from its generator, so every other
// seed's case is what it was before the wide profile existed.
func IsWide(seed int64) bool { return uint64(seed)%wideEvery == 0 }

// hasLatchProfile reports whether seed's case carries addLatchStates'
// any-byte self-loop states on top of its RandomSpec automaton: one seed in
// eight, none of them wide. Like the wide profile it is a function of the
// seed, so every other seed keeps its case.
func hasLatchProfile(seed int64) bool { return uint64(seed)%8 == 4 }

// NewCase deterministically generates the case for a seed.
func NewCase(seed int64) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	var spec *NFASpec
	if IsWide(seed) {
		spec = RandomWideSpec(rng)
	} else {
		spec = RandomSpec(rng)
	}
	if hasLatchProfile(seed) {
		addLatchStates(rng, spec)
	}
	n, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return &Case{Seed: seed, Spec: spec, NFA: n, Input: RandomInput(rng, spec)}, nil
}

// CheckCase runs every invariant on the case and returns the first
// violation, or "" if all hold. The checks themselves are deterministic
// functions of the case seed (chunk splits and config toggles are drawn
// from a sub-generator seeded by it).
func CheckCase(c *Case) (invariant, detail string) {
	oracle := OracleRun(c.NFA, c.Input)
	sub := rand.New(rand.NewSource(c.Seed ^ 0x5eedc0de))
	if inv, d := checkEngineRuns(c, oracle); inv != "" {
		return inv, d
	}
	if inv, d := checkPrefilteredMeta(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkBaselineSkip(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkSegmented(c, oracle); inv != "" {
		return inv, d
	}
	if inv, d := checkChunkedStream(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkParallel(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkSchedulerParity(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkSFAMode(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkCancellation(c, oracle, sub); inv != "" {
		return inv, d
	}
	if inv, d := checkScored(c, sub); inv != "" {
		return inv, d
	}
	return "", ""
}

// checkEngineRuns asserts oracle ≡ sequential Run on every backend, plus
// cross-engine agreement on the final frontier, fingerprint and transition
// count (stepwise agreement is the engine package's own property test; the
// end-state check here catches divergence on generated shapes cheaply).
func checkEngineRuns(c *Case, oracle []engine.Report) (string, string) {
	tab := engine.NewTables(c.NFA)
	for _, kind := range engineKinds {
		res := engine.RunEngineOpts(c.NFA, c.Input, kind, tab, engine.RunOpts{})
		if d := diffReports(oracle, res.Reports); d != "" {
			return "oracle-vs-run/" + kind.String(), d
		}
	}
	o := NewOracle(c.NFA)
	engines := make([]engine.Engine, len(engineKinds))
	for i, kind := range engineKinds {
		engines[i] = engine.New(kind, c.NFA, tab)
	}
	for i, sym := range c.Input {
		o.Step(sym, nil)
		for _, e := range engines {
			e.Step(sym, int64(i), nil)
		}
	}
	want := o.Enabled()
	for i, e := range engines {
		got := sortedIDs(e.AppendFrontier(nil))
		if !equalIDs(want, got) {
			return "oracle-vs-frontier/" + engineKinds[i].String(),
				fmt.Sprintf("final frontier %v, oracle %v", got, want)
		}
		if e.Fingerprint() != engines[0].Fingerprint() {
			return "engine-fingerprint/" + engineKinds[i].String(),
				fmt.Sprintf("fingerprint %#x, %s %#x",
					e.Fingerprint(), engineKinds[0], engines[0].Fingerprint())
		}
		if got, ref := e.Stats().Transitions, engines[0].Stats().Transitions; got != ref {
			return "engine-transitions/" + engineKinds[i].String(),
				fmt.Sprintf("transitions %d, %s %d", got, engineKinds[0], ref)
		}
	}
	return "", ""
}

// checkPrefilteredMeta asserts the meta stack's prefilter never changes
// observable behaviour. Three sub-checks:
//
//  1. Class-skip path (match-any run loop, no literal scanning): every
//     observable — reports, transition count, frontier statistics — is
//     bit-identical to the sparse reference, because a byte outside the
//     start class stepped on a dead frontier provably fires nothing.
//  2. Literal-skip path (RunOpts.LiteralPrefilter, the pap Match* mode):
//     the report set equals the oracle's. Only report-exactness is
//     claimed here — literal skipping may jump bytes that would have
//     fired non-reporting baseline work.
//  3. Chunked-stream skip, through the loop Stream.Write runs: one Meta
//     cursor fed random chunks must reproduce the oracle's reports,
//     including literals that straddle chunk boundaries, and skip exactly
//     the bytes the whole-input run skips.
func checkPrefilteredMeta(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	tab := engine.NewTables(c.NFA)
	sp := engine.RunEngineOpts(c.NFA, c.Input, engine.SparseKind, tab, engine.RunOpts{})

	cls := engine.RunEngineOpts(c.NFA, c.Input, engine.MetaKind, tab, engine.RunOpts{})
	if d := diffReports(oracle, cls.Reports); d != "" {
		return "prefilter-class/reports", d
	}
	if cls.Transitions != sp.Transitions {
		return "prefilter-class/transitions",
			fmt.Sprintf("meta %d, sparse %d", cls.Transitions, sp.Transitions)
	}
	if cls.MaxFrontier != sp.MaxFrontier || cls.SumFrontier != sp.SumFrontier {
		return "prefilter-class/frontier",
			fmt.Sprintf("meta max %d sum %d, sparse max %d sum %d",
				cls.MaxFrontier, cls.SumFrontier, sp.MaxFrontier, sp.SumFrontier)
	}

	lit := engine.RunEngineOpts(c.NFA, c.Input, engine.MetaKind, tab,
		engine.RunOpts{LiteralPrefilter: true})
	if d := diffReports(oracle, lit.Reports); d != "" {
		return "prefilter-literal/reports", d
	}

	cur := engine.NewWithOpts(engine.MetaKind, c.NFA, tab, engine.RunOpts{})
	var all, chunk []engine.Report
	cur.Emit = func(r engine.Report) { chunk = append(chunk, r) }
	pos := 0
	for pos < len(c.Input) {
		n := 1 + rng.Intn(32)
		if pos+n > len(c.Input) {
			n = len(c.Input) - pos
		}
		chunk = chunk[:0]
		cur.Feed(c.Input[pos:pos+n], 0, int64(pos))
		if err := cur.Advance(context.Background(), n); err != nil {
			return "prefilter-stream-chunks/meta", err.Error()
		}
		pos += n
		all = append(all, engine.DedupeReports(chunk)...)
	}
	if d := diffReports(oracle, all); d != "" {
		return "prefilter-stream-chunks/meta", d
	}
	if cur.PrefilterSkipped != cls.PrefilterSkipped {
		return "prefilter-stream-chunks/meta",
			fmt.Sprintf("chunked run skipped %d bytes, whole run %d", cur.PrefilterSkipped, cls.PrefilterSkipped)
	}
	return "", ""
}

// checkBaselineSkip asserts the baseline-skip fast path is invisible:
// oracle ≡ skip-enabled run ≡ skip-disabled run (the new ablation), on
// every backend, with every observable — reports, transition count,
// frontier statistics — bit-identical between the two runs, and with the
// full PAP parallelization equally unchanged by the ablation (every
// modelled metric except the skip counter itself).
func checkBaselineSkip(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	tab := engine.NewTables(c.NFA)
	for _, kind := range engineKinds {
		name := "baseline-skip/" + kind.String()
		on := engine.RunEngineOpts(c.NFA, c.Input, kind, tab, engine.RunOpts{})
		off := engine.RunEngineOpts(c.NFA, c.Input, kind, tab,
			engine.RunOpts{DisableBaselineSkip: true})
		if d := diffReports(oracle, on.Reports); d != "" {
			return name, "skip-enabled vs oracle: " + d
		}
		if d := diffReports(oracle, off.Reports); d != "" {
			return name, "skip-disabled vs oracle: " + d
		}
		if on.Transitions != off.Transitions {
			return name, fmt.Sprintf("transitions: enabled %d, disabled %d",
				on.Transitions, off.Transitions)
		}
		if on.MaxFrontier != off.MaxFrontier || on.SumFrontier != off.SumFrontier {
			return name, fmt.Sprintf("frontier stats: enabled max %d sum %d, disabled max %d sum %d",
				on.MaxFrontier, on.SumFrontier, off.MaxFrontier, off.SumFrontier)
		}
		if off.BaselineSkipped != 0 {
			return name, fmt.Sprintf("disabled run still skipped %d bytes", off.BaselineSkipped)
		}
	}

	if len(c.Input) < 8 {
		return "", "" // too short to partition meaningfully
	}
	base := parallelConfig(rng, false)
	base.DisableBaselineSkip = false
	abl := base
	abl.DisableBaselineSkip = true
	ron, err := core.Run(c.NFA, c.Input, base)
	if err != nil {
		return "baseline-skip/parallel", fmt.Sprintf("core.Run: %v (cfg %+v)", err, base)
	}
	roff, err := core.Run(c.NFA, c.Input, abl)
	if err != nil {
		return "baseline-skip/parallel", fmt.Sprintf("ablated core.Run: %v (cfg %+v)", err, abl)
	}
	if d := diffReports(oracle, roff.Reports); d != "" {
		return "baseline-skip/parallel", "ablated vs oracle: " + d
	}
	if roff.BaselineSkipped != 0 {
		return "baseline-skip/parallel",
			fmt.Sprintf("ablated run still skipped %d bytes", roff.BaselineSkipped)
	}
	if d := diffResultMetrics(zeroBaselineSkip(ron), zeroBaselineSkip(roff)); d != "" {
		return "baseline-skip/parallel", "ablation changed a metric: " + d + fmt.Sprintf(" (cfg %+v)", base)
	}
	return "", ""
}

// zeroBaselineSkip returns a copy of res with the baseline-skip counters
// cleared, so diffResultMetrics can compare a skip-enabled and a
// skip-ablated run on everything else.
func zeroBaselineSkip(res *core.Result) *core.Result {
	out := *res
	out.BaselineSkipped = 0
	out.Golden.BaselineSkipped = 0
	out.Segments = append([]core.SegmentStats(nil), res.Segments...)
	for i := range out.Segments {
		out.Segments[i].BaselineSkipped = 0
	}
	return &out
}

// CutsFor returns the equal-division cut positions for k segments, clipped
// to valid strictly-increasing positions inside (0, len).
func CutsFor(inputLen, k int) []int {
	var cuts []int
	for j := 1; j < k; j++ {
		p := j * inputLen / k
		if p <= 0 || p >= inputLen {
			continue
		}
		if len(cuts) > 0 && cuts[len(cuts)-1] >= p {
			continue
		}
		cuts = append(cuts, p)
	}
	return cuts
}

// checkSegmented asserts, for every segment count k: the boundary-recording
// run reproduces the oracle's reports; each recorded boundary frontier
// equals the oracle's enabled set at that cut; and k independent engines,
// each re-seeded from the previous boundary's frontier, together reproduce
// exactly the oracle's reports (segment-count invariance). Backends rotate
// with k so every kind serves both roles.
func checkSegmented(c *Case, oracle []engine.Report) (string, string) {
	tab := engine.NewTables(c.NFA)
	for ki, k := range segmentCounts {
		kind := engineKinds[ki%len(engineKinds)]
		cuts := CutsFor(len(c.Input), k)
		res, bounds, _, _ := engine.RunWithBoundaries(context.Background(), c.NFA, c.Input, cuts, kind, tab, engine.RunOpts{}, nil)
		name := fmt.Sprintf("boundaries-k%d/%s", k, kind)
		if d := diffReports(oracle, res.Reports); d != "" {
			return name, d
		}
		if len(bounds) != len(cuts) {
			return name, fmt.Sprintf("%d boundaries for %d cuts", len(bounds), len(cuts))
		}
		_, fronts := OracleRunCuts(c.NFA, c.Input, cuts)
		for i, b := range bounds {
			if !equalIDs(fronts[i], b.Enabled) {
				return name, fmt.Sprintf("boundary %d (pos %d): enabled %v, oracle %v",
					i, b.Pos, b.Enabled, fronts[i])
			}
		}
		// Segment resume: segment 0 runs from the start configuration; each
		// later segment runs on a fresh engine seeded with the previous
		// boundary's enabled set. The union must be exactly the oracle set.
		var union []engine.Report
		emit := func(r engine.Report) { union = append(union, r) }
		for i := 0; i <= len(cuts); i++ {
			start, end := 0, len(c.Input)
			if i > 0 {
				start = cuts[i-1]
			}
			if i < len(cuts) {
				end = cuts[i]
			}
			e := engine.New(kind, c.NFA, tab)
			if i > 0 {
				e.Reset(bounds[i-1].Enabled)
			}
			for p := start; p < end; p++ {
				e.Step(c.Input[p], int64(p), emit)
			}
		}
		if d := diffReports(oracle, union); d != "" {
			return fmt.Sprintf("segment-resume-k%d/%s", k, kind), d
		}
	}
	return "", ""
}

// checkChunkedStream asserts that feeding the input through an engine in
// randomly split chunks — deduplicating per chunk, exactly as Stream.Write
// does — yields the oracle's report set on every backend.
func checkChunkedStream(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	tab := engine.NewTables(c.NFA)
	for _, kind := range engineKinds {
		e := engine.New(kind, c.NFA, tab)
		var all, chunk []engine.Report
		emit := func(r engine.Report) { chunk = append(chunk, r) }
		pos := 0
		for pos < len(c.Input) {
			n := 1 + rng.Intn(32)
			if pos+n > len(c.Input) {
				n = len(c.Input) - pos
			}
			chunk = chunk[:0]
			for _, sym := range c.Input[pos : pos+n] {
				e.Step(sym, int64(pos), emit)
				pos++
			}
			all = append(all, engine.DedupeReports(chunk)...)
		}
		if d := diffReports(oracle, all); d != "" {
			return "stream-chunks/" + kind.String(), d
		}
	}
	return "", ""
}

// checkParallel asserts oracle ≡ the full PAP parallelization, under a
// default configuration and under a toggled one (CC-merge, parent-merge,
// convergence, deactivation, FIV, prefilter, baseline-skip and absorption
// flipped pseudo-randomly), across rotating backends, segment caps and TDM
// quanta.
func checkParallel(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	if len(c.Input) < 8 {
		return "", "" // too short to partition meaningfully
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"default", parallelConfig(rng, false)},
		{"toggled", parallelConfig(rng, true)},
	}
	for _, tc := range configs {
		res, err := core.Run(c.NFA, c.Input, tc.cfg)
		if err != nil {
			return "parallel-" + tc.name, fmt.Sprintf("core.Run: %v (cfg %+v)", err, tc.cfg)
		}
		if err := res.CheckCorrect(); err != nil {
			return "parallel-" + tc.name, fmt.Sprintf("%v (cfg %+v)", err, tc.cfg)
		}
		if d := diffReports(oracle, res.Reports); d != "" {
			return "parallel-" + tc.name, d + fmt.Sprintf(" (cfg %+v)", tc.cfg)
		}
	}
	return "", ""
}

// checkSchedulerParity asserts the cross-segment parallel scheduler is
// observationally identical to the serial one: same reports as the oracle,
// and every field — whole-run and per-segment — bit-identical, with no
// exemption.
func checkSchedulerParity(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	if len(c.Input) < 8 {
		return "", "" // too short to partition meaningfully
	}
	for _, toggled := range []bool{false, true} {
		cfg := parallelConfig(rng, toggled)
		ser := cfg
		ser.SegmentParallel = false
		par := cfg
		par.SegmentParallel = true
		name := "scheduler-parity-default"
		if toggled {
			name = "scheduler-parity-toggled"
		}
		rs, err := core.Run(c.NFA, c.Input, ser)
		if err != nil {
			return name, fmt.Sprintf("serial core.Run: %v (cfg %+v)", err, ser)
		}
		rp, err := core.Run(c.NFA, c.Input, par)
		if err != nil {
			return name, fmt.Sprintf("parallel core.Run: %v (cfg %+v)", err, par)
		}
		if d := diffReports(oracle, rp.Reports); d != "" {
			return name, "parallel vs oracle: " + d + fmt.Sprintf(" (cfg %+v)", par)
		}
		if d := diffResultMetrics(rs, rp); d != "" {
			return name, d + fmt.Sprintf(" (cfg %+v)", cfg)
		}
	}
	return "", ""
}

// checkSFAMode asserts the SFA function-composition execution mode is a
// third must-agree path: oracle ≡ flow mode ≡ SFA mode, on every engine
// backend and under both schedulers, with the serial and parallel SFA
// runs additionally bit-identical in every modelled metric (the same
// parity contract flow mode honours).
func checkSFAMode(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	if len(c.Input) < 8 {
		return "", "" // too short to partition meaningfully
	}
	base := parallelConfig(rng, false)
	flowRef, err := core.Run(c.NFA, c.Input, base)
	if err != nil {
		return "sfa-mode", fmt.Sprintf("flow-mode reference core.Run: %v (cfg %+v)", err, base)
	}
	for _, kind := range engineKinds {
		cfg := base
		cfg.Engine = kind
		cfg.Mode = core.ModeSFA
		name := "sfa-mode/" + kind.String()

		ser := cfg
		ser.SegmentParallel = false
		par := cfg
		par.SegmentParallel = true
		rs, err := core.Run(c.NFA, c.Input, ser)
		if err != nil {
			return name, fmt.Sprintf("serial core.Run: %v (cfg %+v)", err, ser)
		}
		rp, err := core.Run(c.NFA, c.Input, par)
		if err != nil {
			return name, fmt.Sprintf("parallel core.Run: %v (cfg %+v)", err, par)
		}
		if err := rs.CheckCorrect(); err != nil {
			return name, fmt.Sprintf("%v (cfg %+v)", err, ser)
		}
		if d := diffReports(oracle, rs.Reports); d != "" {
			return name, "sfa vs oracle: " + d + fmt.Sprintf(" (cfg %+v)", ser)
		}
		if d := diffReports(flowRef.Reports, rs.Reports); d != "" {
			return name, "sfa vs flow mode: " + d + fmt.Sprintf(" (cfg %+v)", ser)
		}
		if d := diffResultMetrics(rs, rp); d != "" {
			return name, "scheduler parity: " + d + fmt.Sprintf(" (cfg %+v)", cfg)
		}
	}
	return "", ""
}

// checkCancellation asserts the cancellation contract on both schedulers:
// a run cancelled at a pseudo-random modelled round boundary returns the
// context error (wrapped in *core.Aborted with sane per-segment progress)
// and no result — it never emits reports the oracle wouldn't, because it
// emits none at all — and a clean re-run afterwards still reproduces the
// oracle exactly, proving cancellation leaves no residue in shared state.
// The cancel is driven through the fault-injection hook so it lands at a
// deterministic modelled coordinate, not a wall-clock race.
func checkCancellation(c *Case, oracle []engine.Report, rng *rand.Rand) (string, string) {
	if len(c.Input) < 8 {
		return "", "" // too short to partition meaningfully
	}
	for _, par := range []bool{false, true} {
		name := "cancellation-serial"
		if par {
			name = "cancellation-parallel"
		}
		cfg := parallelConfig(rng, false)
		cfg.SegmentParallel = par
		targetSeg, targetRound := rng.Intn(4), rng.Intn(3)

		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		cfg.Fault = func(p faultinject.Point) error {
			if p.Stage == faultinject.RoundStep && p.Segment == targetSeg && p.Round == targetRound {
				fired.Store(true)
				cancel()
			}
			return nil
		}
		res, err := core.RunContext(ctx, core.NewStatic(c.NFA, nil), c.Input, cfg)
		cancel()

		if fired.Load() {
			if err == nil {
				return name, fmt.Sprintf("cancel at seg %d round %d fired but the run succeeded (cfg %+v)",
					targetSeg, targetRound, cfg)
			}
			if res != nil {
				return name, fmt.Sprintf("non-nil result alongside %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				return name, fmt.Sprintf("error %v does not wrap context.Canceled", err)
			}
			var ab *core.Aborted
			if !errors.As(err, &ab) {
				return name, fmt.Sprintf("error %v is not *core.Aborted", err)
			}
			for _, p := range ab.Segments {
				if p.Start > p.Pos || p.Pos > p.End {
					return name, fmt.Sprintf("progress out of range: %+v", p)
				}
			}
		} else {
			// The target coordinate was never reached (fewer segments or
			// rounds than drawn): the run must have completed normally.
			if err != nil {
				return name, fmt.Sprintf("unfired cancel but run failed: %v (cfg %+v)", err, cfg)
			}
			if d := diffReports(oracle, res.Reports); d != "" {
				return name, "uncancelled run vs oracle: " + d
			}
		}

		// Clean re-run: cancellation must leave no residue anywhere shared.
		cfg.Fault = nil
		clean, err := core.Run(c.NFA, c.Input, cfg)
		if err != nil {
			return name, fmt.Sprintf("clean re-run failed: %v (cfg %+v)", err, cfg)
		}
		if d := diffReports(oracle, clean.Reports); d != "" {
			return name, "clean re-run vs oracle: " + d
		}
	}
	return "", ""
}

// checkScored is the scored-match invariant: with score tracking on, every
// execution path must reproduce the scored oracle's report set score for
// score and agree on the best score — sequential runs on all five engine
// kinds (lazy DFA and meta fall back to the bit engine's scorer), the
// baseline-skip ablation, chunked streaming exactly as Stream.Write chunks,
// boundary-recording runs whose recorded frontier scores must equal the
// oracle's at every cut, boundary-re-seeded segment resume, and the full
// PAP parallelization under both schedulers and both execution modes.
// Roughly a third of generated specs carry edge weights
// (negative, zero and tied); on the unscored rest the scored paths must
// still run and produce all-zero scores — the all-zero ≡ unscored
// degenerate case, checked here on every single case.
func checkScored(c *Case, rng *rand.Rand) (string, string) {
	oracle := OracleRunScored(c.NFA, c.Input)
	oracleBest, hasReports := engine.BestReportScore(oracle)
	tab := engine.NewTables(c.NFA)

	// Sequential scored runs on every backend.
	for _, kind := range engineKinds {
		res := engine.RunEngineOpts(c.NFA, c.Input, kind, tab, engine.RunOpts{Scored: true})
		if d := diffReports(oracle, res.Reports); d != "" {
			return "scored-match/" + kind.String(), d
		}
		if hasReports && res.BestScore != oracleBest {
			return "scored-match/" + kind.String(),
				fmt.Sprintf("best score %d, oracle %d", res.BestScore, oracleBest)
		}
	}

	// The baseline-skip fast path must stay invisible under scoring (a
	// skipped symbol fires nothing, so no score can change).
	ablKind := engineKinds[rng.Intn(len(engineKinds))]
	abl := engine.RunEngineOpts(c.NFA, c.Input, ablKind, tab,
		engine.RunOpts{Scored: true, DisableBaselineSkip: true})
	if d := diffReports(oracle, abl.Reports); d != "" {
		return "scored-skip-ablation/" + ablKind.String(), d
	}

	// Chunked streaming with scoring on, per-chunk dedup exactly as
	// Stream.Write performs it: scores must carry across chunk straddles.
	for _, kind := range engineKinds {
		e := engine.New(engine.ScoringKind(kind), c.NFA, tab)
		engine.SetScoring(e, true)
		var all, chunk []engine.Report
		emit := func(r engine.Report) { chunk = append(chunk, r) }
		pos := 0
		for pos < len(c.Input) {
			n := 1 + rng.Intn(32)
			if pos+n > len(c.Input) {
				n = len(c.Input) - pos
			}
			chunk = chunk[:0]
			for _, sym := range c.Input[pos : pos+n] {
				e.Step(sym, int64(pos), emit)
				pos++
			}
			all = append(all, engine.DedupeReports(chunk)...)
		}
		if d := diffReports(oracle, all); d != "" {
			return "scored-stream-chunks/" + kind.String(), d
		}
	}

	// Scored boundary recording + segment resume, rotating backends with the
	// segment count: each recorded boundary's frontier scores must equal the
	// oracle's at that cut, and re-seeding each segment from the previous
	// boundary's (enabled, scores) pair must reproduce the oracle exactly.
	for ki, k := range segmentCounts {
		kind := engineKinds[ki%len(engineKinds)]
		cuts := CutsFor(len(c.Input), k)
		name := fmt.Sprintf("scored-boundaries-k%d/%s", k, kind)
		res, bounds, _, err := engine.RunWithBoundaries(
			context.Background(), c.NFA, c.Input, cuts, kind, tab, engine.RunOpts{Scored: true}, nil)
		if err != nil {
			return name, fmt.Sprintf("boundary run: %v", err)
		}
		if d := diffReports(oracle, res.Reports); d != "" {
			return name, d
		}
		_, fronts, fscores := OracleRunScoredCuts(c.NFA, c.Input, cuts)
		for i, b := range bounds {
			if !equalIDs(fronts[i], b.Enabled) {
				return name, fmt.Sprintf("boundary %d (pos %d): enabled %v, oracle %v",
					i, b.Pos, b.Enabled, fronts[i])
			}
			for j, q := range b.Enabled {
				if b.Scores[j] != fscores[i][j] {
					return name, fmt.Sprintf("boundary %d (pos %d) state %d: score %d, oracle %d",
						i, b.Pos, q, b.Scores[j], fscores[i][j])
				}
			}
		}
		var union []engine.Report
		emit := func(r engine.Report) { union = append(union, r) }
		for i := 0; i <= len(cuts); i++ {
			start, end := 0, len(c.Input)
			if i > 0 {
				start = cuts[i-1]
			}
			if i < len(cuts) {
				end = cuts[i]
			}
			e := engine.New(engine.ScoringKind(kind), c.NFA, tab)
			engine.SetScoring(e, true)
			if i > 0 {
				engine.ResetScoredOf(e, bounds[i-1].Enabled, bounds[i-1].Scores)
			}
			for p := start; p < end; p++ {
				e.Step(c.Input[p], int64(p), emit)
			}
		}
		if d := diffReports(oracle, union); d != "" {
			return fmt.Sprintf("scored-segment-resume-k%d/%s", k, kind), d
		}
	}

	// Full PAP parallelization: both schedulers × both execution modes.
	// CheckCorrect covers score exactness too
	// (SameReports compares scores), so Correct doubles as the internal
	// golden-vs-composed scored agreement.
	if len(c.Input) < 8 {
		return "", "" // too short to partition meaningfully
	}
	base := parallelConfig(rng, false)
	base.Scored = true
	type coreCase struct {
		name string
		cfg  core.Config
	}
	var cases []coreCase
	for _, mode := range []core.Mode{core.ModeFlows, core.ModeSFA} {
		for _, par := range []bool{false, true} {
			cfg := base
			cfg.Mode = mode
			cfg.SegmentParallel = par
			name := fmt.Sprintf("scored-parallel/%v-serial", mode)
			if par {
				name = fmt.Sprintf("scored-parallel/%v-parallel", mode)
			}
			cases = append(cases, coreCase{name, cfg})
		}
	}
	for _, tc := range cases {
		res, err := core.Run(c.NFA, c.Input, tc.cfg)
		if err != nil {
			return tc.name, fmt.Sprintf("core.Run: %v (cfg %+v)", err, tc.cfg)
		}
		if err := res.CheckCorrect(); err != nil {
			return tc.name, fmt.Sprintf("%v (cfg %+v)", err, tc.cfg)
		}
		if d := diffReports(oracle, res.Reports); d != "" {
			return tc.name, d + fmt.Sprintf(" (cfg %+v)", tc.cfg)
		}
		if hasReports && res.BestScore != oracleBest {
			return tc.name, fmt.Sprintf("best score %d, oracle %d (cfg %+v)",
				res.BestScore, oracleBest, tc.cfg)
		}
	}
	return "", ""
}

// diffResultMetrics compares every modelled metric of a serial and a
// parallel result, returning "" when bit-identical.
func diffResultMetrics(a, b *core.Result) string {
	if d := diffReports(a.Reports, b.Reports); d != "" {
		return "reports: " + d
	}
	scalars := []struct {
		name string
		a, b interface{}
	}{
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
		{"PrefilterSkipped", a.PrefilterSkipped, b.PrefilterSkipped},
		{"BaselineSkipped", a.BaselineSkipped, b.BaselineSkipped},
		{"CapacityNote", a.CapacityNote, b.CapacityNote},
		{"SFAMappings", a.SFAMappings, b.SFAMappings},
		{"SFAComposeOps", a.SFAComposeOps, b.SFAComposeOps},
		{"FingerprintCollisions", a.FingerprintCollisions, b.FingerprintCollisions},
	}
	for _, s := range scalars {
		if s.a != s.b {
			return fmt.Sprintf("%s: serial %v, parallel %v", s.name, s.a, s.b)
		}
	}
	if len(a.Segments) != len(b.Segments) {
		return fmt.Sprintf("segment count: serial %d, parallel %d", len(a.Segments), len(b.Segments))
	}
	for i := range a.Segments {
		if sa, sb := a.Segments[i], b.Segments[i]; sa != sb {
			return fmt.Sprintf("segment %d: serial %+v, parallel %+v", i, sa, sb)
		}
	}
	return ""
}

// parallelConfig draws a PAP configuration from rng. With toggled set, the
// ablation switches are flipped pseudo-randomly (always at least one).
func parallelConfig(rng *rand.Rand, toggled bool) core.Config {
	cfg := core.DefaultConfig(1)
	cfg.Workers = 1 + rng.Intn(2)
	cfg.MaxSegments = 2 + rng.Intn(7)
	cfg.TDMQuantum = []int{4, 8, 16}[rng.Intn(3)]
	cfg.ConvergenceEvery = 1 + rng.Intn(4)
	cfg.Engine = engineKinds[rng.Intn(len(engineKinds))]
	if toggled {
		cfg.DisableCCMerge = rng.Intn(2) == 0
		cfg.DisableParentMerge = rng.Intn(2) == 0
		cfg.DisableConvergence = rng.Intn(2) == 0
		cfg.DisableDeactivation = rng.Intn(2) == 0
		cfg.DisableFIV = rng.Intn(2) == 0
		cfg.DisablePrefilter = rng.Intn(2) == 0
		cfg.DisableBaselineSkip = rng.Intn(2) == 0
		cfg.AbsorbDeactivation = rng.Intn(2) == 0
		if !(cfg.DisableCCMerge || cfg.DisableParentMerge || cfg.DisableConvergence ||
			cfg.DisableDeactivation || cfg.DisableFIV) {
			cfg.DisableConvergence = true
		}
	}
	return cfg
}

// diffReports returns "" when got (after dedup) equals the canonical want
// set, else a compact description of the first divergence. Scores are part
// of the comparison: unscored paths are checked against a score-stripped
// oracle set and carry all-zero scores themselves, so for them this reduces
// to (offset, state, code) equality; for scored paths it is score-for-score.
func diffReports(want, got []engine.Report) string {
	g := engine.DedupeReports(append([]engine.Report(nil), got...))
	for i := 0; i < len(want) || i < len(g); i++ {
		switch {
		case i >= len(want):
			return fmt.Sprintf("%d reports, want %d; first extra (off %d, state %d)",
				len(g), len(want), g[i].Offset, g[i].State)
		case i >= len(g):
			return fmt.Sprintf("%d reports, want %d; first missing (off %d, state %d)",
				len(g), len(want), want[i].Offset, want[i].State)
		case want[i].Offset != g[i].Offset || want[i].State != g[i].State || want[i].Code != g[i].Code:
			return fmt.Sprintf("report %d = (off %d, state %d, code %d), want (off %d, state %d, code %d)",
				i, g[i].Offset, g[i].State, g[i].Code, want[i].Offset, want[i].State, want[i].Code)
		case want[i].Score != g[i].Score:
			return fmt.Sprintf("report %d (off %d, state %d): score %d, want %d",
				i, g[i].Offset, g[i].State, g[i].Score, want[i].Score)
		}
	}
	return ""
}

func sortedIDs(ids []nfa.StateID) []nfa.StateID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []nfa.StateID) bool {
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

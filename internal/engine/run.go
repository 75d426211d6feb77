package engine

import (
	"context"
	"slices"
	"sort"

	"pap/internal/nfa"
)

// CtxCheckEvery is the symbol interval between context polls in the run
// loop: frequent enough that even slow automata notice a deadline within
// microseconds, rare enough to keep the poll off the hot per-symbol path.
// core's segment drivers go no further than this between their own polls.
const CtxCheckEvery = 4096

// Result summarises one sequential execution.
type Result struct {
	Reports []Report
	// Stats is the engine's counters at the end of the run (or at the
	// abort position): Transitions and Cache.
	Stats
	MaxFrontier int
	SumFrontier int64 // Σ frontier size over all positions (avg = Sum/len)
	// PrefilterSkipped counts input bytes the run never stepped because a
	// prefilter proved them inert on a dead frontier (0 for kinds without
	// a prefilter). Skipped symbols contribute nothing to Transitions or
	// the frontier statistics — for class skips that is exact (the true
	// contribution is zero); literal skips additionally drop doomed partial
	// frontiers (see RunOpts.LiteralPrefilter).
	PrefilterSkipped int64
	// BaselineSkipped counts input bytes the cursor's baseline skip scanned
	// past instead of stepping (see Cursor). Like class prefilter skips it
	// is fully exact: every observable, including the per-symbol frontier
	// statistics, is preserved bit-for-bit.
	BaselineSkipped int64
	// BestScore is the maximum report Score of a scored run (see
	// RunOpts.Scored); meaningful only when Reports is non-empty (scores
	// may be negative, so 0 is not a sentinel). Always 0 for unscored runs.
	BestScore int64
}

// RunOpts tunes the run loop.
type RunOpts struct {
	// LiteralPrefilter permits the report-exact literal scanner for
	// dead-frontier skips, in addition to the always-exact class scanner.
	// Only the report stream is then guaranteed; MaxFrontier/SumFrontier
	// may undercount doomed partial-literal activity. Match-only callers
	// (pap.Match and friends) enable it; metric-bearing callers (anything
	// recording boundaries) must not.
	LiteralPrefilter bool
	// DisableBaselineSkip makes the cursor step every symbol even for the
	// kinds that take the baseline skip — the ablation the conformance
	// harness uses to prove the skip exact.
	DisableBaselineSkip bool
	// Scored enables per-transition score tracking (see Scorer): the engine
	// kind is remapped through ScoringKind (lazy DFA and meta have no score
	// channel), reports carry scores, Result.BestScore is filled, and the
	// literal prefilter is never used — it is only report-exact, and a
	// dropped doomed frontier could carry the best score. The always-exact
	// baseline skip stays on: a skipped symbol fires nothing, so no score
	// can change.
	Scored bool
}

// NewWithOpts is New honouring run options — kind remapping and score
// tracking under Scored — wrapped in the cursor the kind calls for: Bit and
// Auto skip a dead frontier through the automaton's start-class scanner
// (Tables.BaselineSkip) unless DisableBaselineSkip is set; Meta skips it
// through the automaton's prefilter (Tables.Prefilter) when scanning can
// pay off, with the literal tier under LiteralPrefilter; Sparse and the
// lazy DFA step every symbol. The cursor polls its context every
// CtxCheckEvery symbols. The run loop and pap.Stream start here.
func NewWithOpts(kind Kind, n *nfa.NFA, tab *Tables, opts RunOpts) Cursor {
	if opts.Scored {
		kind = ScoringKind(kind)
	}
	if tab == nil && kind != SparseKind && kind != LazyDFAKind {
		tab = NewTables(n)
	}
	c := Cursor{eng: New(kind, n, tab), baseline: true, every: CtxCheckEvery}
	if opts.Scored {
		SetScoring(c.eng, true)
	}
	switch kind {
	case SparseKind, LazyDFAKind:
	case MetaKind:
		if pf := tab.Prefilter(); pf.Useful() {
			c.pf, c.literal = pf, opts.LiteralPrefilter
		}
	default:
		if !opts.DisableBaselineSkip {
			c.scan, c.inert = tab.BaselineSkip(), true
		}
	}
	return c
}

// Run executes the automaton over the whole input with the default (Auto)
// backend and collects all reports in order.
func Run(n *nfa.NFA, input []byte) Result {
	return RunEngineOpts(n, input, Auto, nil, RunOpts{})
}

// RunEngineOpts is Run with an explicit backend kind, optional shared match
// tables (nil builds private tables on demand; sparse ignores them) and run
// options. Under MetaKind dead-frontier regions are skipped through the
// automaton's prefilter instead of stepped; Result.PrefilterSkipped counts
// the bytes skipped.
func RunEngineOpts(n *nfa.NFA, input []byte, kind Kind, tab *Tables, opts RunOpts) Result {
	res, _, _, _ := run(context.Background(), n, input, nil, kind, tab, opts, nil)
	return res
}

// RunContext is RunEngineOpts with cooperative cancellation: ctx.Err() is
// polled every CtxCheckEvery symbols, so the per-symbol inner loop stays
// check-free. On cancellation it returns ctx's error together with the
// partial result and the number of symbols processed before the poll
// observed the cancellation.
func RunContext(ctx context.Context, n *nfa.NFA, input []byte, kind Kind, tab *Tables, opts RunOpts) (Result, int, error) {
	res, _, pos, err := run(ctx, n, input, nil, kind, tab, opts, nil)
	return res, pos, err
}

// Boundary captures the golden execution state at one segment cut: the
// segment starting at Pos sees Enabled as its true start frontier, produced
// by the states in Fired firing on input[Pos-1].
type Boundary struct {
	Pos     int
	Fired   []nfa.StateID // fired on input[Pos-1] (copy, sorted)
	Enabled []nfa.StateID // enabled at Pos, excluding all-input (copy, sorted)
	// Scores holds the best-path score of each Enabled state, parallel to
	// Enabled; nil for unscored runs. Segment flows seeded from this
	// boundary inherit these entry scores, which is what makes
	// boundary-crossing path scores exact under parallelization.
	Scores []int64
}

// RunWithBoundaries is RunContext, additionally recording the golden state
// at each cut position. cuts must be strictly increasing, in
// (0, len(input)). Boundary runs feed the modelled-cycle metrics, so opts
// must leave LiteralPrefilter off.
//
// onCut, when non-nil, is handed each Boundary as the run passes its cut —
// on the run's goroutine, before the next symbol — so that a consumer on
// another goroutine can work behind the run instead of after it. An error
// from onCut stops the run there and is returned with the position.
func RunWithBoundaries(ctx context.Context, n *nfa.NFA, input []byte, cuts []int, kind Kind, tab *Tables, opts RunOpts,
	onCut func(Boundary) error) (Result, []Boundary, int, error) {
	return run(ctx, n, input, cuts, kind, tab, opts, onCut)
}

// run is the sequential execution behind every Run* entry point: the
// kind's cursor advances to the symbol before each cut and steps that one
// alone, so its Fired and Enabled record the boundary; then it advances to
// the end. It returns the result, the boundary recorded at each cut, and
// the number of symbols processed — len(input), or the poll position with
// ctx's error.
func run(ctx context.Context, n *nfa.NFA, input []byte, cuts []int, kind Kind, tab *Tables, opts RunOpts,
	onCut func(Boundary) error) (Result, []Boundary, int, error) {
	c := NewWithOpts(kind, n, tab, opts)
	var res Result
	c.Emit = func(r Report) { res.Reports = append(res.Reports, r) }
	c.Feed(input, 0, 0)
	var bounds []Boundary
	if len(cuts) > 0 {
		bounds = make([]Boundary, 0, len(cuts))
	}
	var err error
	for _, cut := range cuts {
		if err = c.Advance(ctx, cut-1); err != nil {
			break
		}
		c.Step()
		e := c.Engine()
		b := Boundary{
			Pos:     cut,
			Fired:   sortedIDs(e.AppendFired(nil)),
			Enabled: sortedIDs(e.AppendFrontier(nil)),
		}
		if opts.Scored {
			b.Scores = AppendScoresOf(e, b.Enabled, nil)
		}
		bounds = append(bounds, b)
		if onCut != nil {
			if err = onCut(b); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = c.Advance(ctx, len(input))
	}
	res.Stats = c.Engine().Stats()
	res.SumFrontier, res.MaxFrontier = c.SumFrontier, c.MaxFrontier
	res.PrefilterSkipped, res.BaselineSkipped = c.PrefilterSkipped, c.BaselineSkipped
	res.BestScore, _ = BestReportScore(res.Reports)
	return res, bounds, c.Pos(), err
}

// sortedIDs sorts ids in place and returns them.
func sortedIDs(ids []nfa.StateID) []nfa.StateID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DedupeReports sorts reports by (offset, state) and removes duplicates,
// keeping the maximum Score among duplicates — under max-plus scoring,
// several flows may each observe the same (offset, state) event along
// different paths, and the event's true score is the best of them. It sorts
// in place and allocates nothing, so hot paths (Stream.Write) can call it
// per chunk.
func DedupeReports(rs []Report) []Report {
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b Report) int {
		if a.Offset != b.Offset {
			if a.Offset < b.Offset {
				return -1
			}
			return 1
		}
		return int(a.State) - int(b.State)
	})
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Offset != last.Offset || r.State != last.State {
			out = append(out, r)
		} else if r.Score > last.Score {
			last.Score = r.Score
		}
	}
	return out
}

// SameReports reports whether a and b contain the same set of
// (offset, state, score) events, ignoring order and duplicates (duplicate
// scores max-merge first, matching DedupeReports). Unscored runs carry
// all-zero scores, so the comparison reduces to (offset, state) for them.
func SameReports(a, b []Report) bool {
	da := DedupeReports(append([]Report(nil), a...))
	db := DedupeReports(append([]Report(nil), b...))
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i].Offset != db[i].Offset || da[i].State != db[i].State || da[i].Score != db[i].Score {
			return false
		}
	}
	return true
}

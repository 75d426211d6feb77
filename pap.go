// Package pap is a software reproduction of the Parallel Automata
// Processor (Subramaniyan & Das, ISCA 2017): enumerative parallelization of
// NFA pattern matching as performed by the Micron Automata Processor.
//
// The package compiles rulesets (a practical regex subset, or direct
// Hamming/Levenshtein constructions) into homogeneous NFAs, matches them
// sequentially, and — the point of the paper — matches them in parallel by
// partitioning the input into segments executed concurrently on modelled
// AP half-cores, enumerating possible start states as AP flows, and
// composing exact results. Every parallel run is functionally exact (the
// composed matches equal sequential matching) and additionally reports the
// modelled AP timing: speedup over the sequential AP baseline, flow
// statistics, and overheads.
//
// Quick start:
//
//	a, err := pap.Compile("rules", []string{"GET /admin", `\d{3}-\d{4}`})
//	matches := a.Match(input)                       // sequential
//	rep, err := a.MatchParallel(input, pap.DefaultConfig(4))
//	fmt.Println(rep.Stats.Speedup)                  // modelled AP speedup
//
// The internal packages implement the full system: internal/nfa (automata
// model and analyses), internal/regex (Glushkov compiler), internal/engine
// (execution), internal/ap (D480 board model), internal/core (the PAP
// parallelization), internal/workloads and internal/experiments (the
// paper's evaluation).
//
// # Concurrency
//
// An Automaton is immutable after compilation: Match, MatchParallel,
// NewStream, Stats, RangeOf and the encoders may all be called
// concurrently from any number of goroutines sharing one compiled
// Automaton (compile once, share everywhere — the lazily computed
// structural analyses are internally synchronized). A Stream, by
// contrast, is a stateful single-flow matcher and is NOT safe for
// concurrent use: create one Stream per goroutine, or serialize access
// externally.
package pap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"pap/internal/anml"
	"pap/internal/ap"
	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/mnrl"
	"pap/internal/nfa"
	"pap/internal/regex"
	"pap/internal/workloads"
)

// EngineKind selects the execution backend used to run an automaton: how
// the enabled-state frontier is represented and advanced each symbol
// cycle. All backends are observably equivalent — same matches, same
// statistics — and differ only in speed across frontier-density regimes.
// See docs/ENGINES.md.
type EngineKind int

const (
	// EngineAuto (the default) picks the representation by what a step
	// costs — frontier plus all-input states walked on the list, one word
	// per 64 states on the vector. Where the automaton's all-input states
	// alone outweigh its vector it is the bit engine outright; on wide
	// automata with few all-input states it switches between the two as
	// the frontier grows and shrinks, with hysteresis both ways.
	EngineAuto EngineKind = iota
	// EngineSparse forces the VASim-style frontier-list engine: cost
	// proportional to active states; fastest on quiet inputs.
	EngineSparse
	// EngineBit forces the AP-faithful dense bit-vector engine: cost
	// proportional to the automaton size; fastest on dense frontiers.
	EngineBit
	// EngineLazyDFA forces the lazy-DFA engine: recurring frontiers are
	// determinized once into a bounded fingerprint-keyed cache and then
	// replayed as single cached-edge lookups, falling back to the sparse
	// engine on cache blowup.
	EngineLazyDFA
	// EngineMeta selects the regime-matched meta stack: literal/class
	// prefiltering skips quiet (dead-frontier) input at scan speed, the
	// lazy DFA serves recurring frontiers from its cache, and the
	// adaptive sparse/bit selector takes over on cache blowup.
	EngineMeta
)

// EngineKindNames returns the parseable names of every backend, in
// EngineKind order ("auto", "sparse", "bit", "lazydfa", "meta").
func EngineKindNames() []string { return engine.KindNames() }

// String returns the parseable engine name (see EngineKindNames).
func (k EngineKind) String() string { return k.toKind().String() }

// ParseEngineKind parses an engine name: "auto" (or "adaptive", or the
// empty string), "sparse", "bit" (or "dense"), "lazydfa" (or
// "lazy-dfa"), "meta". Unknown names return an error listing the valid
// kinds.
func ParseEngineKind(s string) (EngineKind, error) {
	kind, err := engine.ParseKind(s)
	if err != nil {
		return EngineAuto, fmt.Errorf("pap: %v", err)
	}
	return EngineKind(kind), nil
}

// EngineKind mirrors engine.Kind value for value, so the two convert
// directly. Each line below fails to compile (constant index out of range)
// if its pair drifts apart; a kind added to or removed from engine.Kind is
// one constant above plus one line here.
var (
	_ = [1]struct{}{}[EngineAuto-EngineKind(engine.Auto)]
	_ = [1]struct{}{}[EngineSparse-EngineKind(engine.SparseKind)]
	_ = [1]struct{}{}[EngineBit-EngineKind(engine.BitKind)]
	_ = [1]struct{}{}[EngineLazyDFA-EngineKind(engine.LazyDFAKind)]
	_ = [1]struct{}{}[EngineMeta-EngineKind(engine.MetaKind)]
	_ = [1]struct{}{}[EngineMeta-EngineKind(engine.MaxKind)]
)

// toKind converts to the internal kind; values outside the declared
// constants select the default backend, as the zero value does.
func (k EngineKind) toKind() engine.Kind {
	if k < 0 || k > EngineMeta {
		return engine.Auto
	}
	return engine.Kind(k)
}

// Rule pairs a pattern with the code its matches report.
type Rule struct {
	Pattern string
	Code    int32
}

// Match is one pattern occurrence: rule Code matched ending at byte Offset.
// Score is the best path score of the match under max-plus scoring (the
// maximum, over all paths reaching the reporting state at this offset, of
// the sum of edge scores; see Builder.ConnectScored). It is always 0 on
// automata without scored transitions.
type Match struct {
	Code   int32
	Offset int64
	Score  int64
}

// Automaton is an immutable compiled ruleset.
type Automaton struct {
	n *nfa.NFA

	// tabOnce/tab lazily build the per-symbol transition tables shared by
	// every dense or adaptive engine run over this automaton (safe for
	// concurrent use; sparse-only runs never pay for them).
	tabOnce sync.Once
	tab     *engine.Tables

	// staticOnce/static lazily build the input-independent half of
	// MatchParallel's pre-processing — range sizes and symbol plans, over
	// the tables above — once for every parallel match of the automaton.
	// Sequential matching and streaming never build it.
	staticOnce sync.Once
	static     *core.Static
}

func (a *Automaton) tables() *engine.Tables {
	a.tabOnce.Do(func() { a.tab = engine.NewTables(a.n) })
	return a.tab
}

func (a *Automaton) plan() *core.Static {
	a.staticOnce.Do(func() { a.static = core.NewStatic(a.n, a.tables()) })
	return a.static
}

// Compile builds an automaton from patterns; rule i reports code i.
// See internal/regex for the supported syntax (a practical PCRE subset;
// unanchored patterns match anywhere, as on the AP).
func Compile(name string, patterns []string) (*Automaton, error) {
	n, err := regex.CompilePatterns(name, patterns)
	if err != nil {
		return nil, err
	}
	return &Automaton{n: n}, nil
}

// CompileRules builds an automaton with explicit report codes.
func CompileRules(name string, rules []Rule) (*Automaton, error) {
	rs := make([]regex.Rule, len(rules))
	for i, r := range rules {
		rs[i] = regex.Rule{Pattern: r.Pattern, Code: r.Code}
	}
	n, err := regex.CompileSet(name, rs)
	if err != nil {
		return nil, err
	}
	return &Automaton{n: n}, nil
}

// Hamming builds an automaton matching any substring within Hamming
// distance d of any of the patterns; pattern i reports code i.
func Hamming(name string, patterns []string, d int) (*Automaton, error) {
	if d < 0 {
		return nil, errors.New("pap: negative distance")
	}
	b := nfa.NewBuilder(name)
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("pap: empty pattern %d", i)
		}
		workloads.BuildHammingLattice(b, []byte(p), d, int32(i))
	}
	n, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Automaton{n: n}, nil
}

// Levenshtein builds an automaton matching any substring within edit
// distance d (insertions, deletions, substitutions) of any of the
// patterns; pattern i reports code i.
func Levenshtein(name string, patterns []string, d int) (*Automaton, error) {
	if d < 0 {
		return nil, errors.New("pap: negative distance")
	}
	b := nfa.NewBuilder(name)
	for i, p := range patterns {
		if len(p) <= d {
			return nil, fmt.Errorf("pap: pattern %d shorter than distance %d", i, d)
		}
		if err := workloads.BuildLevenshtein(b, []byte(p), d, int32(i)); err != nil {
			return nil, err
		}
	}
	n, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Automaton{n: n}, nil
}

// DecodeANML reads an automaton from ANML XML, the Micron AP SDK's format
// (the one ANMLZoo distributes benchmarks in). Only pure STE networks are
// supported; any other element (counter, boolean gate, or unknown kind) is
// rejected with an error naming it.
func DecodeANML(r io.Reader) (*Automaton, error) {
	n, err := anml.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Automaton{n: n}, nil
}

// Name returns the name the automaton was compiled under.
func (a *Automaton) Name() string { return a.n.Name() }

// EncodeANML writes the automaton as ANML XML.
func (a *Automaton) EncodeANML(w io.Writer) error { return anml.Encode(w, a.n) }

// DecodeMNRL reads an automaton from MNRL JSON, the MNCaRT ecosystem's
// interchange format. Only hState networks are supported.
func DecodeMNRL(r io.Reader) (*Automaton, error) {
	n, err := mnrl.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Automaton{n: n}, nil
}

// EncodeMNRL writes the automaton as MNRL JSON.
func (a *Automaton) EncodeMNRL(w io.Writer) error { return mnrl.Encode(w, a.n) }

// Compress returns an equivalent automaton with common prefixes merged
// (Becchi-style compression, applied by the paper before execution).
func (a *Automaton) Compress() *Automaton {
	return &Automaton{n: nfa.MergeCommonPrefixes(a.n)}
}

// Union returns an automaton matching everything a or b matches; the two
// rulesets stay in disjoint components. Report codes are preserved as-is:
// offset them beforehand if the rulesets number their rules independently.
func (a *Automaton) Union(b *Automaton) *Automaton {
	return &Automaton{n: nfa.Union(a.n, b.n)}
}

// Stats summarises the automaton's structure.
type Stats struct {
	States              int
	Transitions         int
	ConnectedComponents int
	ReportingStates     int
	AlwaysActiveStates  int
}

// Stats returns structural statistics.
func (a *Automaton) Stats() Stats {
	s := a.n.ComputeStats()
	return Stats{
		States:              s.States,
		Transitions:         s.Edges,
		ConnectedComponents: s.CCs,
		ReportingStates:     s.Reporting,
		AlwaysActiveStates:  s.AllInput,
	}
}

// Scored reports whether any transition of the automaton carries a score
// (built via Builder.ConnectScored). Scored automata track Match.Score on
// every sequential and parallel match.
func (a *Automaton) Scored() bool { return a.n.Scored() }

// RangeOf returns the size of symbol sym's range: the number of states
// reachable on sym from anywhere in the automaton (§3.1 of the paper).
// Small-range symbols make good input partition points.
func (a *Automaton) RangeOf(sym byte) int { return a.n.RangeSize(sym) }

// WriteDOT renders the automaton in Graphviz DOT form.
func (a *Automaton) WriteDOT(w io.Writer) error { return a.n.WriteDOT(w) }

// Match runs the automaton sequentially over input and returns all
// matches in order. Matches at the same offset from different reporting
// states are deduplicated per (offset, state), exactly as AP report events
// are. It runs on EngineAuto; MatchWithInfo selects another backend.
func (a *Automaton) Match(input []byte) []Match {
	ms, _ := a.MatchWithInfo(input, EngineAuto)
	return ms
}

// EngineInfo reports backend observability counters from one match or
// stream: how much input the prefilter skipped and how the lazy-DFA
// state cache behaved. All fields are 0 for backends without the
// corresponding machinery.
type EngineInfo struct {
	// PrefilterSkippedBytes counts input bytes never stepped because the
	// prefilter proved them inert on a dead frontier.
	PrefilterSkippedBytes int64
	// BaselineSkippedBytes counts input bytes the engine's exact
	// baseline-skip fast path scanned past (start-class scan while only
	// always-active states were live). Fully exact: reports, frontier
	// statistics, and modelled cycles are identical to stepping.
	BaselineSkippedBytes int64
	// EngineSwitches counts sparse⇄dense representation switches
	// (EngineAuto, and EngineMeta once its lazy DFA fell back).
	EngineSwitches int64
	// CacheHits/CacheMisses/CacheEvictions are lazy-DFA state-cache
	// counters (EngineLazyDFA and EngineMeta).
	CacheHits, CacheMisses, CacheEvictions int64
	// CacheFellBack reports that the lazy DFA abandoned its cache and
	// fell back permanently to its inner engine.
	CacheFellBack bool
}

// infoOf assembles an EngineInfo from an engine's counters and the bytes
// the loop around it (engine.Run*, Stream) skipped through the prefilter.
func infoOf(st engine.Stats, prefilterSkipped int64) EngineInfo {
	return EngineInfo{
		PrefilterSkippedBytes: prefilterSkipped,
		BaselineSkippedBytes:  st.BaselineSkipped,
		EngineSwitches:        st.Switches,
		CacheHits:             st.Cache.Hits,
		CacheMisses:           st.Cache.Misses,
		CacheEvictions:        st.Cache.Evictions,
		CacheFellBack:         st.Cache.FellBack,
	}
}

// MatchWithInfo is Match on an explicitly selected execution backend,
// additionally returning the backend's observability counters (papd
// surfaces them as metrics). All backends return identical matches; see
// EngineKind for the trade-offs.
func (a *Automaton) MatchWithInfo(input []byte, k EngineKind) ([]Match, EngineInfo) {
	ms, info, _ := a.MatchWithInfoContext(context.Background(), input, k) // Background never aborts
	return ms, info
}

// MatchWithInfoContext is MatchWithInfo under a context: a cancelled or
// expired ctx stops the run promptly (the context is polled at coarse
// symbol intervals, off the per-symbol hot path) and returns ctx's error
// wrapped in *AbortError with the input offset reached. The counters are
// valid even on abort, covering the processed prefix.
//
// Match-only runs enable the full prefilter (including the report-exact
// literal scanner) under EngineMeta, so quiet inputs are scanned rather
// than stepped. Scored automata track scores on every sequential match
// (scoring is a property of the automaton, not a per-call option); the run
// layer drops the literal prefilter when scoring (see
// engine.RunOpts.Scored).
func (a *Automaton) MatchWithInfoContext(ctx context.Context, input []byte, k EngineKind) ([]Match, EngineInfo, error) {
	res, pos, err := engine.RunContext(ctx, a.n, input, k.toKind(), a.tables(),
		engine.RunOpts{LiteralPrefilter: true, Scored: a.n.Scored()})
	info := infoOf(res.Stats, res.PrefilterSkipped)
	if err != nil {
		return nil, info, &AbortError{
			Cause:    err,
			Progress: []SegmentProgress{{Index: 0, Start: 0, End: len(input), Pos: pos}},
		}
	}
	return toMatches(engine.DedupeReports(res.Reports)), info, nil
}

func toMatches(reports []engine.Report) []Match {
	out := make([]Match, len(reports))
	for i, r := range reports {
		out[i] = Match{Code: r.Code, Offset: r.Offset, Score: r.Score}
	}
	return out
}

// Config controls parallel matching. Zero values select defaults; start
// from DefaultConfig.
type Config struct {
	// Ranks is the modelled AP board size (1..4).
	Ranks int
	// MaxSegments caps parallelism below the board limit (0 = board limit).
	MaxSegments int
	// Engine selects the execution backend for every simulated flow
	// (default EngineAuto). It changes simulator wall-clock time only,
	// never matches or modelled AP cycles.
	Engine EngineKind
	// Scoring forces per-transition score tracking during parallel
	// matching even when the automaton carries no scored transitions
	// (every score is then 0 — useful for ablation and conformance
	// testing). Automata built with scored transitions
	// (Builder.ConnectScored) always track scores, with or without this
	// flag. Scoring disables the score-blind convergence/absorption flow
	// merges, so flow statistics and modelled cycles differ from an
	// unscored run; matches and their exactness guarantee are unchanged.
	Scoring bool
}

// DefaultConfig returns the paper's operating point for a board size.
func DefaultConfig(ranks int) Config {
	return Config{Ranks: ranks}
}

func (c Config) toCore() core.Config {
	ranks := c.Ranks
	if ranks == 0 {
		ranks = 1
	}
	cfg := core.DefaultConfig(ranks)
	cfg.MaxSegments = c.MaxSegments
	cfg.Engine = c.Engine.toKind()
	cfg.Scored = c.Scoring
	return cfg
}

// RunStats reports the modelled AP execution of one parallel match. The
// JSON tags are papd's wire format for the "ap" object of a match response.
type RunStats struct {
	// Segments is the number of input segments processed in parallel.
	Segments int `json:"segments"`
	// Speedup is modelled-baseline cycles / modelled-PAP cycles; Ideal is
	// the segment count.
	Speedup      float64 `json:"speedup"`
	IdealSpeedup float64 `json:"ideal_speedup"`
	// BaselineNS and ParallelNS are modelled wall times at 7.5 ns/cycle.
	BaselineNS float64 `json:"baseline_ns"`
	ParallelNS float64 `json:"parallel_ns"`
	// CutSymbol is the chosen partition symbol and CutRange its range.
	CutSymbol byte `json:"cut_symbol"`
	CutRange  int  `json:"cut_range"`
	// AvgActiveFlows is the time-averaged enumeration flow count.
	AvgActiveFlows float64 `json:"avg_active_flows"`
	// SwitchOverheadPct is flow-switching cost as % of AP busy cycles.
	SwitchOverheadPct float64 `json:"switch_overhead_pct"`
	// FalseReportRatio is emitted report events / true events (≥ 1).
	FalseReportRatio float64 `json:"false_report_ratio"`
	// EngineSwitches counts sparse⇄dense representation switches made by
	// adaptive engines across all flows (0 for fixed backends).
	EngineSwitches int64 `json:"engine_switches"`
	// PrefilterSkippedBytes counts input bytes the simulator's prefilter
	// proved inert and never stepped, across all flows and the golden
	// boundary run. Pure simulator observability: skipped symbols are
	// still charged their modelled AP cycles.
	PrefilterSkippedBytes int64 `json:"prefilter_skipped"`
	// BaselineSkippedBytes counts input bytes covered by the exact
	// baseline-skip fast path (start-class scan over regions where only
	// always-active states were live), across all flows and the golden
	// boundary run. Exact for every observable and deterministic across
	// schedulers; skipped symbols still charge their modelled AP cycles.
	BaselineSkippedBytes int64 `json:"baseline_skipped"`
	// FingerprintCollisions counts hash-equal-but-different state-vector
	// pairs caught by the full compare backing every fingerprint fast
	// path (convergence and deactivation). Collisions are handled exactly,
	// never merged.
	FingerprintCollisions int64 `json:"fingerprint_collisions,omitempty"`
	// Scored reports whether per-transition score tracking was enabled for
	// this run (Config.Scoring, or an automaton with scored transitions).
	Scored bool `json:"scored,omitempty"`
	// ScoredReports is the number of matches carrying tracked scores:
	// len(Matches) when Scored, 0 otherwise.
	ScoredReports int `json:"scored_reports,omitempty"`
	// BestScore is the maximum Match.Score of the run. Meaningful only
	// when Scored and at least one match exists — scores may be negative,
	// so 0 is not a no-matches sentinel. Not part of the JSON record:
	// papd reports it beside the matches, omitted when there are none.
	BestScore int64 `json:"-"`
	// Verified confirms the composed matches equalled sequential matching
	// (always true; a false value would be a library bug). Under Scored it
	// additionally confirms every match's score equalled the sequential
	// run's.
	Verified bool `json:"verified"`
}

// Report is the outcome of MatchParallel.
type Report struct {
	Matches []Match
	Stats   RunStats
}

// SegmentProgress is how far one input segment had advanced when a
// cancelled match stopped. Pos is the next unprocessed input offset:
// Pos == Start means the segment never started, Pos == End means it had
// finished. Sequential matches report one segment covering the input.
type SegmentProgress struct {
	Index  int `json:"index"`
	Start  int `json:"start"`
	End    int `json:"end"`
	Pos    int `json:"pos"`
	Rounds int `json:"rounds"`
}

// AbortError is returned by the *Context match variants when a match
// stops before completion — context cancellation or deadline, or an
// internal failure converted to an error at a segment boundary. It wraps
// the cause (errors.Is(err, context.DeadlineExceeded) sees through it)
// and reports per-segment progress, which papd surfaces as
// 503-with-partial-progress.
type AbortError struct {
	Cause    error
	Progress []SegmentProgress
}

func (e *AbortError) Error() string {
	done, total := 0, 0
	for _, s := range e.Progress {
		done += s.Pos - s.Start
		total += s.End - s.Start
	}
	return fmt.Sprintf("pap: match aborted after %d/%d bytes across %d segments: %v",
		done, total, len(e.Progress), e.Cause)
}

func (e *AbortError) Unwrap() error { return e.Cause }

// MatchParallel matches input using the PAP parallelization and returns
// the exact match set together with modelled AP statistics.
func (a *Automaton) MatchParallel(input []byte, cfg Config) (*Report, error) {
	return a.MatchParallelContext(context.Background(), input, cfg)
}

// serialMaxInput is the longest input MatchParallel simulates on the
// calling goroutine alone: the golden run, then the segments in turn, as
// under core's serial scheduler. The modelled AP execution is the same
// either way, only wall-clock time differs. The value is the record size of
// the repository benchmark's needle_requests workload, the one short input
// it measures: there a call is fixed cost, which a goroutine hand-off only
// adds to. A short call that enumerates for real can lose a little by it
// (BenchmarkMatchParallelBySize, table in DESIGN.md §5b).
const serialMaxInput = 256

// MatchParallelContext is MatchParallel under a context: a cancelled or
// expired ctx stops every segment at its next TDM round boundary — within
// 4096 symbols, like a sequential match — and the golden run beside them
// at its next poll (the per-symbol inner loops stay check-free), and
// returns ctx's error wrapped in *AbortError with per-segment progress.
// An input longer than 256 bytes is simulated on up to GOMAXPROCS
// goroutines at once, the caller's and the golden run's included; a shorter
// one on the caller alone. No goroutine outlives the call.
func (a *Automaton) MatchParallelContext(ctx context.Context, input []byte, cfg Config) (*Report, error) {
	coreCfg := cfg.toCore()
	if a.n.Scored() {
		coreCfg.Scored = true // scored automata always track (see Config.Scoring)
	}
	coreCfg.SegmentParallel = len(input) > serialMaxInput
	res, err := core.RunContext(ctx, a.plan(), input, coreCfg)
	if err != nil {
		var ab *core.Aborted
		if errors.As(err, &ab) {
			out := &AbortError{Cause: ab.Cause}
			for _, s := range ab.Segments {
				out.Progress = append(out.Progress, SegmentProgress{
					Index: s.Index, Start: s.Start, End: s.End, Pos: s.Pos, Rounds: s.Rounds,
				})
			}
			return nil, out
		}
		return nil, err
	}
	if err := res.CheckCorrect(); err != nil {
		return nil, err
	}
	scoredReports := 0
	if coreCfg.Scored {
		scoredReports = len(res.Reports)
	}
	return &Report{
		Matches: toMatches(res.Reports),
		Stats: RunStats{
			Segments:              res.Plan.Segments,
			Speedup:               res.Speedup,
			IdealSpeedup:          res.IdealSpeedup,
			BaselineNS:            res.BaselineCycles.Nanoseconds(),
			ParallelNS:            res.TotalCycles.Nanoseconds(),
			CutSymbol:             res.Plan.CutSym,
			CutRange:              a.n.RangeSize(res.Plan.CutSym),
			AvgActiveFlows:        res.AvgActiveFlows,
			SwitchOverheadPct:     res.SwitchOverheadPct,
			FalseReportRatio:      res.ReportIncrease,
			EngineSwitches:        res.EngineSwitches,
			PrefilterSkippedBytes: res.PrefilterSkipped,
			BaselineSkippedBytes:  res.BaselineSkipped,
			FingerprintCollisions: res.FingerprintCollisions,
			Scored:                coreCfg.Scored,
			ScoredReports:         scoredReports,
			BestScore:             res.BestScore,
			Verified:              res.Correct,
		},
	}, nil
}

// SymbolCycleNS is the modelled AP symbol cycle (7.5 ns).
const SymbolCycleNS = ap.SymbolCycleNS

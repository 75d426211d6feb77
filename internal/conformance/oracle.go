// Package conformance is the repository's differential-testing subsystem:
// a deliberately naive reference oracle, seeded generators for random
// homogeneous NFAs and adversarial inputs, and a metamorphic invariant
// harness asserting that every execution path of the library — sequential
// runs on all three engines, boundary-recording runs, independently
// re-seeded segment runs for several segment counts, chunked streaming, and
// the full PAP parallelization under its ablation toggles — produces
// exactly the oracle's report set.
//
// The design follows the standard practice for keeping parallel matchers
// honest: PaREM validates parallel DFA runs against sequential matching,
// and the Simultaneous Finite Automata work proves segment-count invariance
// as its core correctness property. Here both are enforced mechanically
// over randomized cases, and failures shrink to a minimal NFA + input with
// a one-line replayable seed.
//
// Entry points: Run (the sweep), CheckCase (one case), NewCase
// (deterministic generation from a seed). See docs/TESTING.md.
package conformance

import (
	"sort"

	"pap/internal/engine"
	"pap/internal/nfa"
)

// Oracle executes an NFA by direct per-symbol simulation over plain maps:
// no match tables, no frontier lists, no merging, no enumeration, nothing
// shared with the production engines beyond the NFA accessors. It exists to
// be obviously correct, not fast.
//
// Semantics (the AP symbol cycle): at step t every enabled state whose
// label matches input[t] fires — reporting if it is a reporting state and
// enabling its successors for step t+1. Start-of-data states are enabled at
// step 0 only; all-input states are enabled at every step.
//
// The oracle also tracks max-plus path scores unconditionally (it is built
// to be obviously correct, not fast): a firing state contributes its score
// plus the edge weight to each successor, successors reached along several
// paths keep the maximum, all-input states always fire with score 0, and a
// report event carries the firing state's score. On unscored automata every
// weight is zero, so every score is zero — identical to before.
type Oracle struct {
	n *nfa.NFA
	// enabled is the next step's enabled set, excluding all-input states
	// (they are added at every step when the oracle fires states).
	enabled map[nfa.StateID]bool
	// scores holds the best-path score of each enabled state. Entries for
	// all-input states are ignored: they score 0 by definition.
	scores map[nfa.StateID]int64
	isAll  map[nfa.StateID]bool
	off    int64
}

// NewOracle returns an oracle at the automaton's start configuration.
func NewOracle(n *nfa.NFA) *Oracle {
	o := &Oracle{
		n:       n,
		enabled: make(map[nfa.StateID]bool),
		scores:  make(map[nfa.StateID]int64),
		isAll:   make(map[nfa.StateID]bool),
	}
	for _, q := range n.AllInputStates() {
		o.isAll[q] = true
	}
	for _, q := range n.StartStates() {
		o.enabled[q] = true
	}
	return o
}

// Reset replaces the enabled set (all-input states are implicit and may be
// included or not; they are ignored) and rewinds nothing else. All seed
// states score 0.
func (o *Oracle) Reset(seed []nfa.StateID) {
	o.ResetScored(seed, nil)
}

// ResetScored is Reset with per-seed entry scores parallel to seed (nil:
// all zero), mirroring engine.Scorer.ResetScored: duplicate seed states
// keep their maximum score.
func (o *Oracle) ResetScored(seed []nfa.StateID, scores []int64) {
	o.enabled = make(map[nfa.StateID]bool)
	o.scores = make(map[nfa.StateID]int64)
	for i, q := range seed {
		var sc int64
		if scores != nil {
			sc = scores[i]
		}
		if !o.enabled[q] || sc > o.scores[q] {
			o.scores[q] = sc
		}
		o.enabled[q] = true
	}
}

// Step consumes one symbol, appending any report events to dst.
func (o *Oracle) Step(sym byte, dst []engine.Report) []engine.Report {
	next := make(map[nfa.StateID]bool)
	nextScores := make(map[nfa.StateID]int64)
	fire := func(q nfa.StateID, base int64) {
		st := o.n.State(q)
		if !st.Label.Test(sym) {
			return
		}
		if st.Flags&nfa.Report != 0 {
			dst = append(dst, engine.Report{Offset: o.off, State: q, Code: st.ReportCode, Score: base})
		}
		w := o.n.SuccScores(q)
		for i, c := range o.n.Succ(q) {
			cand := base
			if w != nil {
				cand += int64(w[i])
			}
			if !next[c] || cand > nextScores[c] {
				nextScores[c] = cand
			}
			next[c] = true
		}
	}
	for q := range o.enabled {
		base := int64(0)
		if !o.isAll[q] {
			base = o.scores[q]
		}
		fire(q, base)
	}
	seen := o.enabled
	for _, q := range o.n.AllInputStates() {
		if !seen[q] { // don't fire a state twice in one step
			fire(q, 0)
		}
	}
	o.enabled, o.scores = next, nextScores
	o.off++
	return dst
}

// Enabled returns the currently enabled states excluding all-input states,
// sorted ascending — the canonical frontier the engines must agree with.
func (o *Oracle) Enabled() []nfa.StateID {
	isAll := make(map[nfa.StateID]bool)
	for _, q := range o.n.AllInputStates() {
		isAll[q] = true
	}
	var out []nfa.StateID
	for q := range o.enabled {
		if !isAll[q] {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EnabledScores returns Enabled() together with each state's best-path
// score, parallel to it — the canonical scored frontier a boundary-recording
// scored run must agree with.
func (o *Oracle) EnabledScores() ([]nfa.StateID, []int64) {
	ids := o.Enabled()
	scores := make([]int64, len(ids))
	for i, q := range ids {
		scores[i] = o.scores[q]
	}
	return ids, scores
}

// OracleRun simulates the whole input and returns the canonical
// (offset, state)-deduplicated, sorted report set, with scores stripped —
// the reference for unscored execution paths (which report score 0 even on
// scored automata, because score tracking is opt-in).
func OracleRun(n *nfa.NFA, input []byte) []engine.Report {
	rs, _ := OracleRunCuts(n, input, nil)
	return rs
}

// OracleRunScored is OracleRun with the max-plus report scores kept — the
// reference for score-tracking execution paths.
func OracleRunScored(n *nfa.NFA, input []byte) []engine.Report {
	rs, _, _ := OracleRunScoredCuts(n, input, nil)
	return rs
}

// OracleRunCuts is OracleRun, additionally recording the enabled set
// (excluding all-input states, sorted) at each cut position. cuts must be
// strictly increasing, in (0, len(input)].
func OracleRunCuts(n *nfa.NFA, input []byte, cuts []int) ([]engine.Report, [][]nfa.StateID) {
	rs, fronts, _ := OracleRunScoredCuts(n, input, cuts)
	for i := range rs {
		rs[i].Score = 0
	}
	return rs, fronts
}

// OracleRunScoredCuts is OracleRunCuts with scores kept, additionally
// recording each cut frontier's best-path scores parallel to its enabled
// set — the reference for scored boundary recording and segment re-seeding.
func OracleRunScoredCuts(n *nfa.NFA, input []byte, cuts []int) ([]engine.Report, [][]nfa.StateID, [][]int64) {
	o := NewOracle(n)
	var rs []engine.Report
	fronts := make([][]nfa.StateID, 0, len(cuts))
	fscores := make([][]int64, 0, len(cuts))
	ci := 0
	for i := range input {
		rs = o.Step(input[i], rs)
		if ci < len(cuts) && cuts[ci] == i+1 {
			ids, sc := o.EnabledScores()
			fronts = append(fronts, ids)
			fscores = append(fscores, sc)
			ci++
		}
	}
	return engine.DedupeReports(rs), fronts, fscores
}

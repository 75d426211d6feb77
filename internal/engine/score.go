package engine

import "pap/internal/nfa"

// Scoring semantics (the scored-NFA sequence-alignment model): every
// transition carries an int32 score annotation (nfa.AddScoredEdge; 0 when
// absent), a path's score is the sum of its edge scores, and an enabled
// state's score is the maximum over all paths that enabled it — tropical
// max-plus semantics, the classical alignment recurrence. All-input start
// states always score 0: they begin fresh paths at every position, which is
// what keeps the ASG/enumeration decomposition additive for scores exactly
// as it is for truth (a baseline path and an enumeration path never need to
// exchange score mass; the max at a shared child is reconstructed by the
// max-merging report dedup). A report event carries the firing state's score
// at fire time.
//
// Scoring is strictly opt-in per engine: with it off (the default) no score
// array is touched and the unscored hot paths are byte-identical to before.

// Scorer is implemented by backends that can track per-state best-path
// scores alongside the frontier (Sparse, Bit). Backends without
// score support (lazy DFA, meta) are mapped away by ScoringKind before
// construction.
type Scorer interface {
	// SetScoring switches score tracking (off by default). Turning it on
	// allocates the score arrays on first use; turning it off restores the
	// score-free fast paths.
	SetScoring(on bool)
	// ResetScored is Reset with per-seed entry scores parallel to seed
	// (scores may be nil: all entries score 0). Duplicate seed states keep
	// their maximum score; all-input seeds are dropped as in Reset.
	ResetScored(seed []nfa.StateID, scores []int64)
	// FrontierScore returns the best-path score of state q. Valid only for
	// currently enabled states; all-input states score 0.
	FrontierScore(q nfa.StateID) int64
}

// ScoringKind maps an engine selection to one that supports scoring: the
// lazy-DFA and meta backends have no score channel (a determinized state
// collapses frontiers score-blind), so they fall back to Auto, the Bit
// engine. Other kinds pass through.
func ScoringKind(k Kind) Kind {
	if k == LazyDFAKind || k == MetaKind {
		return Auto
	}
	return k
}

// SetScoring switches score tracking on e, returning false for backends
// without score support.
func SetScoring(e Engine, on bool) bool {
	if s, ok := e.(Scorer); ok {
		s.SetScoring(on)
		return true
	}
	return false
}

// ResetScoredOf seeds e with per-state entry scores, falling back to a
// plain Reset (dropping the scores) for backends without score support.
func ResetScoredOf(e Engine, seed []nfa.StateID, scores []int64) {
	if s, ok := e.(Scorer); ok {
		s.ResetScored(seed, scores)
		return
	}
	e.Reset(seed)
}

// AppendScoresOf appends e's current score for each state in states to dst
// and returns it (zeros for backends without score support). states must
// all be currently enabled.
func AppendScoresOf(e Engine, states []nfa.StateID, dst []int64) []int64 {
	s, ok := e.(Scorer)
	for _, q := range states {
		if ok {
			dst = append(dst, s.FrontierScore(q))
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// BestReportScore returns the maximum Score over the reports, and whether
// there was any report at all (the score of an empty report set is
// meaningless — scores may be negative, so 0 is not a safe sentinel).
func BestReportScore(rs []Report) (int64, bool) {
	if len(rs) == 0 {
		return 0, false
	}
	best := rs[0].Score
	for _, r := range rs[1:] {
		if r.Score > best {
			best = r.Score
		}
	}
	return best, true
}

var (
	_ Scorer = (*Sparse)(nil)
	_ Scorer = (*Bit)(nil)
)

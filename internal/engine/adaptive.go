package engine

import (
	"pap/internal/bitset"
	"pap/internal/nfa"
	"pap/internal/prefilter"
)

// Adaptive switching policy. Density is frontier size relative to the
// automaton's state count; the two thresholds are deliberately apart
// (hysteresis) and switches are rate-limited so an oscillating frontier
// cannot thrash between representations. See docs/ENGINES.md for the
// rationale and measurements.
const (
	// adaptiveDenseDiv: go dense when frontier > states/adaptiveDenseDiv
	// (density above 1/8).
	adaptiveDenseDiv = 8
	// adaptiveSparseDiv: go back to sparse when frontier <
	// states/adaptiveSparseDiv (density below 1/16).
	adaptiveSparseDiv = 16
	// adaptiveHoldSteps is the minimum number of Steps between two
	// representation switches.
	adaptiveHoldSteps = 16
)

// Adaptive is the density-adaptive engine: it executes on the Sparse
// engine while the frontier is small (most inputs, most of the time) and
// migrates the frontier to the Bit engine when density crosses the dense
// threshold — the regime the AP's every-cycle dense state-vector update is
// built for, common under enumeration where a segment runs |Range(σ)|
// flows at once. Both representations produce identical observable
// behaviour, so switching is invisible except in speed. Not safe for
// concurrent use; the shared Tables is.
type Adaptive struct {
	n        *nfa.NFA
	states   int
	tab      *Tables
	sparse   *Sparse
	bit      *Bit // created on the first switch to dense
	cur      Engine
	dense    bool
	baseline bool
	switches int64
	since    int // steps since the last switch (rate limit)
	seedBuf  []nfa.StateID

	// Score tracking (see Scorer): the concrete engines hold the scores;
	// the adaptive layer only propagates the switch and carries the score
	// vector across representation switches via scoreBuf.
	scoring  bool
	scoreBuf []int64

	// Baseline-skip fast path (see StepBatch): the adaptive engine skips
	// at its own level so a dead frontier never pays a representation
	// switch just to reach the bit engine's scanner.
	skip    *prefilter.ClassScanner
	skipOn  bool
	skipped int64
}

// NewAdaptive returns an adaptive engine at the start configuration,
// initially in sparse representation, sharing tab (nil allocates private
// lazily-filled tables, only ever touched after a dense switch).
func NewAdaptive(n *nfa.NFA, tab *Tables) *Adaptive {
	if tab == nil {
		tab = NewTables(n)
	}
	a := &Adaptive{
		n:        n,
		states:   n.Len(),
		tab:      tab,
		sparse:   NewSparse(n),
		baseline: true,
		since:    adaptiveHoldSteps,
		skip:     tab.BaselineSkip(),
		skipOn:   true,
	}
	a.cur = a.sparse
	return a
}

// Reset replaces the frontier with the given seed states, staying in the
// current representation (the next Step re-evaluates density immediately).
func (a *Adaptive) Reset(seed []nfa.StateID) {
	a.cur.Reset(seed)
	a.since = adaptiveHoldSteps
}

// SetScoring switches score tracking (see Scorer) on both representations.
func (a *Adaptive) SetScoring(on bool) {
	a.scoring = on
	a.sparse.SetScoring(on)
	if a.bit != nil {
		a.bit.SetScoring(on)
	}
}

// ResetScored is Reset with per-seed entry scores (see Scorer).
func (a *Adaptive) ResetScored(seed []nfa.StateID, scores []int64) {
	a.cur.(Scorer).ResetScored(seed, scores)
	a.since = adaptiveHoldSteps
}

// FrontierScore returns the best-path score of enabled state q.
func (a *Adaptive) FrontierScore(q nfa.StateID) int64 {
	return a.cur.(Scorer).FrontierScore(q)
}

// SetBaseline switches baseline injection; see Sparse.SetBaseline.
func (a *Adaptive) SetBaseline(on bool) {
	a.baseline = on
	a.cur.SetBaseline(on)
}

// Step consumes one symbol. The density check runs before the step, so the
// fired set observable afterwards always belongs to the engine that
// executed this symbol. The hot path dispatches on the concrete engines
// (not through Engine) to keep sparse-regime overhead in the noise.
func (a *Adaptive) Step(sym byte, off int64, emit EmitFunc) {
	if a.since >= adaptiveHoldSteps {
		if !a.dense {
			if len(a.sparse.frontier)*adaptiveDenseDiv > a.states {
				a.switchTo(true)
			}
		} else if a.bit.enabled.Count()*adaptiveSparseDiv < a.states {
			a.switchTo(false)
		}
	} else {
		a.since++
	}
	if a.dense {
		a.bit.Step(sym, off, emit)
	} else {
		a.sparse.Step(sym, off, emit)
	}
}

// StepBatch consumes between 1 and len(input) symbols (see Engine).
// A dead frontier takes the baseline-skip fast path regardless of the
// current representation; a dense frontier delegates the whole batch to
// the bit engine's vectorized kernel; a sparse frontier steps one symbol
// (the sparse engine is per-state work already — batching buys nothing).
func (a *Adaptive) StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	if a.cur.Dead() {
		if n := a.skipAhead(input); n > 0 {
			return n, 0, 0
		}
	}
	if a.since >= adaptiveHoldSteps {
		if !a.dense {
			if len(a.sparse.frontier)*adaptiveDenseDiv > a.states {
				a.switchTo(true)
			}
		} else if a.bit.enabled.Count()*adaptiveSparseDiv < a.states {
			a.switchTo(false)
		}
	}
	if a.dense {
		consumed, sumFrontier, maxFrontier = a.bit.StepBatch(input, off, emit)
		if a.since < adaptiveHoldSteps {
			if a.since += consumed; a.since > adaptiveHoldSteps {
				a.since = adaptiveHoldSteps
			}
		}
		return consumed, sumFrontier, maxFrontier
	}
	if a.since < adaptiveHoldSteps {
		a.since++
	}
	a.sparse.Step(input[0], off, emit)
	l := len(a.sparse.frontier)
	return 1, int64(l), l
}

// skipAhead is the adaptive engine's baseline-skip fast path; see
// Bit.skipAhead for the exactness argument. It operates above the
// representation choice, so skip behaviour (and the skipped count) does
// not depend on which engine currently holds the frontier.
func (a *Adaptive) skipAhead(input []byte) int {
	if !a.skipOn {
		return 0
	}
	var j int
	if a.baseline {
		if a.skip == nil {
			return 0
		}
		j = a.skip.NextIn(input, 0, len(input))
	} else {
		j = len(input)
	}
	if j > 0 {
		if a.dense {
			a.bit.clearFired()
		} else {
			a.sparse.clearFired()
		}
		a.skipped += int64(j)
	}
	return j
}

// SetBaselineSkip switches the baseline-skip fast path (on by default).
func (a *Adaptive) SetBaselineSkip(on bool) {
	a.skipOn = on
	if a.bit != nil {
		a.bit.SetBaselineSkip(on)
	}
}

// switchTo migrates the frontier into the other representation — the
// cross-engine analogue of an SVC context switch. The transition counters
// of both engines persist, so Stats stays cumulative.
func (a *Adaptive) switchTo(dense bool) {
	var to Engine
	if dense {
		if a.bit == nil {
			a.bit = NewBit(a.n, a.tab)
			a.bit.SetBaselineSkip(a.skipOn)
			a.bit.SetScoring(a.scoring)
		}
		to = a.bit
	} else {
		to = a.sparse
	}
	a.seedBuf = a.cur.AppendFrontier(a.seedBuf[:0])
	to.SetBaseline(a.baseline)
	if a.scoring {
		// Carry the score vector across the representation switch: read the
		// frontier's scores out of the old engine, seed the new one with them.
		a.scoreBuf = AppendScoresOf(a.cur, a.seedBuf, a.scoreBuf[:0])
		to.(Scorer).ResetScored(a.seedBuf, a.scoreBuf)
	} else {
		to.Reset(a.seedBuf)
	}
	a.cur = to
	a.dense = dense
	a.switches++
	a.since = 0
}

// Dense reports whether the engine is currently in the bit representation.
func (a *Adaptive) Dense() bool { return a.dense }

// FrontierLen returns the number of enabled states (excluding all-input).
func (a *Adaptive) FrontierLen() int { return a.cur.FrontierLen() }

// Dead reports whether the frontier is empty.
func (a *Adaptive) Dead() bool { return a.cur.Dead() }

// Fingerprint returns the Zobrist fingerprint of the frontier.
func (a *Adaptive) Fingerprint() uint64 { return a.cur.Fingerprint() }

// Stats returns the representation switches performed plus the transition
// and baseline-skip counters summed over both representations (the bit
// engine skips on its own account while it holds the frontier).
func (a *Adaptive) Stats() Stats {
	st := Stats{Transitions: a.sparse.trans, Switches: a.switches, BaselineSkipped: a.skipped}
	if a.bit != nil {
		st.Transitions += a.bit.trans
		st.BaselineSkipped += a.bit.skipped
	}
	return st
}

// AppendFrontier appends the enabled states to dst and returns it.
func (a *Adaptive) AppendFrontier(dst []nfa.StateID) []nfa.StateID {
	return a.cur.AppendFrontier(dst)
}

// AppendFired appends the states that fired on the most recent Step.
func (a *Adaptive) AppendFired(dst []nfa.StateID) []nfa.StateID {
	return a.cur.AppendFired(dst)
}

// FrontierSet materialises the frontier as a fresh bit vector.
func (a *Adaptive) FrontierSet() *bitset.Set { return a.cur.FrontierSet() }

package engine

import (
	"pap/internal/bitset"
	"pap/internal/nfa"
)

// The representation choice, by what one symbol step costs. The list engine
// visits every frontier state and — the part a density rule misses — every
// all-input state, the paper's Active State Group, which is enabled on
// every cycle: F+A label tests, with F the frontier length and
// A = len(AllInputStates()). The vector engine is priced at W = ⌈states/64⌉
// words, which its batch kernel now passes over once per batch rather than
// per symbol; the constants, not options, were fitted to that kernel by
// BenchmarkAutoPolicySweep and BenchmarkAutoPolicyBreakEven (tables in
// docs/ENGINES.md). The two thresholds are deliberately apart (hysteresis)
// and switches are rate-limited, so an oscillating frontier cannot thrash
// between representations.
const (
	// adaptiveDenseMul: go dense when adaptiveDenseMul·(F+A) > W.
	adaptiveDenseMul = 8
	// adaptiveSparseMul: go back to sparse when adaptiveSparseMul·(F+A) < W.
	adaptiveSparseMul = 16
	// adaptiveHoldSteps is the minimum number of Steps between two
	// representation switches.
	adaptiveHoldSteps = 16
)

// stepWords is W, the words one vector step touches.
func stepWords(n *nfa.NFA) int { return (n.Len() + 63) / 64 }

// alwaysDense reports whether the list side can never win on n: the Active
// State Group alone already costs more than the whole vector, whatever the
// frontier does. New(Auto, …) then returns the Bit engine itself.
func alwaysDense(n *nfa.NFA) bool {
	return adaptiveDenseMul*len(n.AllInputStates()) > stepWords(n)
}

// Adaptive is the cost-adaptive engine for automata whose Active State
// Group is small against their width: it executes on the Sparse engine
// while frontier plus ASG stay cheap to walk and migrates the frontier to
// the Bit engine when they cross the dense threshold — the regime the AP's
// every-cycle dense state-vector update is built for, common under
// enumeration where a segment runs |Range(σ)| flows at once. Both
// representations produce identical observable behaviour, so switching is
// invisible except in speed. Not safe for concurrent use; the shared
// Tables is.
type Adaptive struct {
	n        *nfa.NFA
	asg      int // A
	words    int // W
	tab      *Tables
	sparse   *Sparse // each side is created when the frontier first lands on it
	bit      *Bit
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
}

// NewAdaptive returns an adaptive engine at the start configuration, in the
// representation the start frontier calls for, sharing tab (nil allocates
// private lazily-filled tables, only ever touched on the dense side).
func NewAdaptive(n *nfa.NFA, tab *Tables) *Adaptive {
	if tab == nil {
		tab = NewTables(n)
	}
	a := &Adaptive{
		n:        n,
		asg:      len(n.AllInputStates()),
		words:    stepWords(n),
		tab:      tab,
		baseline: true,
		since:    adaptiveHoldSteps,
	}
	a.dense = adaptiveDenseMul*(len(n.StartStates())+a.asg) > a.words
	a.cur = a.side(a.dense)
	return a
}

// side returns the engine of one representation, creating it on first use
// (at the start configuration; callers migrating a frontier reseed it).
func (a *Adaptive) side(dense bool) Engine {
	if dense {
		if a.bit == nil {
			a.bit = NewBit(a.n, a.tab)
			a.bit.SetScoring(a.scoring)
		}
		return a.bit
	}
	if a.sparse == nil {
		a.sparse = NewSparse(a.n)
		a.sparse.SetScoring(a.scoring)
	}
	return a.sparse
}

// Reset replaces the frontier with the given seed states, staying in the
// current representation (the next Step re-evaluates the cost immediately).
func (a *Adaptive) Reset(seed []nfa.StateID) {
	a.cur.Reset(seed)
	a.since = adaptiveHoldSteps
}

// SetScoring switches score tracking (see Scorer) on both representations.
func (a *Adaptive) SetScoring(on bool) {
	a.scoring = on
	if a.sparse != nil {
		a.sparse.SetScoring(on)
	}
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

// rebalance applies the policy once the hold has elapsed. The list walks
// the all-input states only while the baseline is on: an enumeration flow
// (baseline off) never steps them, so they cost it nothing.
func (a *Adaptive) rebalance() {
	if a.since < adaptiveHoldSteps {
		return
	}
	asg := 0
	if a.baseline {
		asg = a.asg
	}
	if !a.dense {
		if adaptiveDenseMul*(len(a.sparse.frontier)+asg) > a.words {
			a.switchTo(true)
		}
	} else if adaptiveSparseMul*(a.bit.enabled.Count()+asg) < a.words {
		a.switchTo(false)
	}
}

// Step consumes one symbol. The cost check runs before the step, so the
// fired set observable afterwards always belongs to the engine that
// executed this symbol. The hot path dispatches on the concrete engines
// (not through Engine) to keep sparse-regime overhead in the noise.
func (a *Adaptive) Step(sym byte, off int64, emit EmitFunc) {
	a.rebalance()
	if a.since < adaptiveHoldSteps {
		a.since++
	}
	if a.dense {
		a.bit.Step(sym, off, emit)
	} else {
		a.sparse.Step(sym, off, emit)
	}
}

// StepBatch consumes between 1 and len(input) symbols (see Engine). A
// dense frontier delegates the whole batch to the bit engine's vectorized
// kernel; a sparse frontier steps one symbol (the sparse engine is
// per-state work already — batching buys nothing). The Cursor skips a dead
// frontier before it gets here, so a skip never pays a representation
// switch.
func (a *Adaptive) StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	a.rebalance()
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

// switchTo migrates the frontier into the other representation — the
// cross-engine analogue of an SVC context switch. The transition counters
// of both engines persist, so Stats stays cumulative.
func (a *Adaptive) switchTo(dense bool) {
	to := a.side(dense)
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

// Stats returns the representation switches performed plus the
// transitions summed over both representations.
func (a *Adaptive) Stats() Stats {
	st := Stats{Switches: a.switches}
	if a.sparse != nil {
		st.Transitions = a.sparse.trans
	}
	if a.bit != nil {
		st.Transitions += a.bit.trans
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

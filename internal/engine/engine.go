// Package engine executes homogeneous NFAs with the exact semantics of the
// Micron AP symbol cycle: at each step, every enabled state whose label
// matches the input symbol fires — reporting if it is a reporting state and
// enabling its children for the next step — and all-input start states are
// re-enabled every step.
//
// Three implementations are provided with identical observable behaviour,
// selected through five kinds (see Kind and New):
//
//   - Bit, the one vector engine, tracks the frontier as a dense bit
//     vector, the way the AP's state-enable mask and State Vector Cache do,
//     and steps up to 64 symbols per StepBatch call at the cost of the live
//     delta beside a per-symbol background, not of the vector's length. The
//     Auto kind (the default) and BitKind build it.
//   - Sparse tracks the enabled frontier as a deduplicated slice, the way
//     VASim does; cost is proportional to the number of active states. It
//     is the reference the other engines are tested against.
//   - The lazy DFA (package lazydfa) determinizes recurring frontiers into
//     a bounded cache. The LazyDFA kind falls back to Sparse on cache
//     blowup; the Meta kind is the same engine falling back to Bit, run
//     under the automaton's prefilter.
//
// All of them satisfy the one Engine contract, and none skips input: one
// Cursor above every engine owns the dead-frontier skip, the context poll
// and the stepping loop. Tests assert their equivalence on random automata
// and inputs.
package engine

import (
	"fmt"
	"strings"

	"pap/internal/bitset"
	"pap/internal/nfa"
)

// Engine is the pluggable execution backend: one enabled-state frontier
// advancing one symbol per Step with exact AP symbol-cycle semantics.
// Engines over the same automaton are observably interchangeable — same
// reports, same frontiers, same fingerprints, same transition counts.
// An engine steps every symbol it is offered; skipping a dead frontier is
// the Cursor's, above it. Implementations are not safe for concurrent use;
// a shared *Tables is.
type Engine interface {
	// Reset replaces the frontier with the given seed states (all-input
	// states in the seed are dropped; duplicates are removed). The
	// cumulative transition counter is preserved.
	Reset(seed []nfa.StateID)
	// SetBaseline switches all-input ("baseline") injection; see
	// Sparse.SetBaseline for the decomposition contract.
	SetBaseline(on bool)
	// Step consumes one symbol at the given input offset. emit may be nil.
	// It is the reference StepBatch is held to; the Cursor calls StepBatch.
	Step(sym byte, off int64, emit EmitFunc)
	// StepBatch consumes between 1 and len(input) symbols starting at
	// absolute input offset off, observably identical to calling Step once
	// per consumed symbol. It returns the consumed count together with the
	// sum and maximum of the frontier length over the consumed symbols, so
	// callers maintain per-symbol frontier statistics exactly. len(input)
	// must be > 0. Implementations are free to consume fewer symbols than
	// offered (batch bounds, a frontier death), never more than scalar
	// Steps would, even on a dead frontier; Sparse and the lazy DFA always
	// consume exactly one.
	StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int)
	// FrontierLen returns the number of enabled states (excluding
	// all-input states).
	FrontierLen() int
	// Dead reports whether the frontier is empty (deactivation check).
	Dead() bool
	// Fingerprint returns the Zobrist fingerprint of the frontier; stable
	// across engines (see Key).
	Fingerprint() uint64
	// Stats returns the cumulative counters since construction (Reset
	// preserves them).
	Stats() Stats
	// AppendFrontier appends the enabled states (excluding all-input) to
	// dst and returns it. Order is unspecified; Bit-backed engines happen
	// to append in ascending order.
	AppendFrontier(dst []nfa.StateID) []nfa.StateID
	// AppendFired appends the states that fired on the most recent Step.
	AppendFired(dst []nfa.StateID) []nfa.StateID
	// FrontierSet materialises the frontier as a freshly allocated bit
	// vector (the AP state vector, minus the always-set all-input bits).
	FrontierSet() *bitset.Set
}

// Kind names an execution backend for layers that thread engine selection
// (core, streams, the public pap API, papd). The zero value is Auto.
type Kind uint8

const (
	// Auto (the default) is the Bit engine, for every automaton: its batch
	// costs the live delta, so no automaton needs the list engine beside it.
	Auto Kind = iota
	// SparseKind forces the frontier-list engine, the reference.
	SparseKind
	// BitKind names the Bit engine, like Auto.
	BitKind
	// LazyDFAKind forces the lazy-DFA engine: frontiers are determinized
	// on the fly into a bounded fingerprint-keyed state cache, falling
	// back to sparse on cache blowup. Requires the backend to be linked:
	// import pap/internal/engine/lazydfa (blank import suffices).
	LazyDFAKind
	// MetaKind selects the regime-matched stack: the lazy DFA while its
	// cache holds and the Bit engine beyond, with the
	// cursor skipping dead-frontier input through the automaton's prefilter
	// (see NewWithOpts).
	MetaKind
)

// MaxKind is the largest valid Kind value, for layers sizing per-kind
// arrays or validating configurations.
const MaxKind = MetaKind

// KindNames returns the canonical parseable names of every backend, in
// Kind order. Command-line flag help and error messages derive from this
// list, so it cannot drift from the registered kinds.
func KindNames() []string {
	return []string{"auto", "sparse", "bit", "lazydfa", "meta"}
}

// String returns the parseable name of the kind.
func (k Kind) String() string {
	if names := KindNames(); int(k) < len(names) {
		return names[k]
	}
	return "auto"
}

// ParseKind parses an engine name: "auto" (or "adaptive", the name of a
// cost-switching engine Auto once built), "sparse", "bit" (or "dense"),
// "lazydfa" (or "lazy-dfa"), "meta". The empty string is Auto.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "auto", "adaptive":
		return Auto, nil
	case "sparse":
		return SparseKind, nil
	case "bit", "dense":
		return BitKind, nil
	case "lazydfa", "lazy-dfa":
		return LazyDFAKind, nil
	case "meta":
		return MetaKind, nil
	}
	return Auto, fmt.Errorf("engine: unknown kind %q (valid kinds: %s)",
		s, strings.Join(KindNames(), ", "))
}

// LazyFactory builds a lazy-DFA engine over n, with newFB constructing
// the permanent fallback engine on cache blowup (nil selects sparse).
// tab is forwarded for fallbacks that use shared match tables.
type LazyFactory func(n *nfa.NFA, tab *Tables, newFB func() Engine) Engine

// lazyFactory is installed by pap/internal/engine/lazydfa's init. The
// indirection breaks the import cycle (lazydfa imports this package for
// the Engine contract), exactly like database/sql driver registration.
var lazyFactory LazyFactory

// RegisterLazyDFA installs the lazy-DFA constructor; called from the
// lazydfa package's init.
func RegisterLazyDFA(f LazyFactory) { lazyFactory = f }

func newLazyDFA(n *nfa.NFA, tab *Tables, newFB func() Engine) Engine {
	if lazyFactory == nil {
		panic(`engine: lazy-DFA backend not linked; import _ "pap/internal/engine/lazydfa"`)
	}
	return lazyFactory(n, tab, newFB)
}

// New returns an engine of the given kind at the automaton's start
// configuration: Auto, BitKind and Meta's fallback are the Bit engine. tab
// may be nil (private tables are built on demand); pass a shared *Tables to amortise
// match-vector construction across engines of the same automaton — Tables
// fills are atomic, so sharing is race-safe. Sparse engines ignore tab.
func New(kind Kind, n *nfa.NFA, tab *Tables) Engine {
	switch kind {
	case SparseKind:
		return NewSparse(n)
	case LazyDFAKind:
		return newLazyDFA(n, tab, nil)
	case MetaKind:
		return newLazyDFA(n, tab, func() Engine { return NewBit(n, tab) })
	default:
		return NewBit(n, tab)
	}
}

// CacheStats reports the lazy-DFA state cache counters of an engine run.
type CacheStats struct {
	Hits, Misses, Evictions int64
	States                  int
	Flushes                 int
	FellBack                bool
}

// Stats is an engine's cumulative counters. Fields a backend has no
// machinery for stay zero.
type Stats struct {
	// Transitions counts transition-edge traversals, the paper's
	// dynamic-energy proxy; identical across backends.
	Transitions int64
	// Cache reports the lazy-DFA state cache.
	Cache CacheStats
}

// bench/ — a separate module that ./... never compiles, frozen against this
// package's API — is the only caller of the three functions below.

// StepBatchOf is e.StepBatch(input, off, emit).
func StepBatchOf(e Engine, input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	return e.StepBatch(input, off, emit)
}

// SetBaselineSkip does nothing: it once switched a skip inside StepBatch,
// which now always steps (the Cursor owns the skip), as its one caller —
// the kernel measurement, which wants no skip — requires.
func SetBaselineSkip(Engine, bool) {}

// SwitchesOf returns 0: it once counted the representation switches of a
// cost-switching engine that Auto no longer builds, and is kept for its one
// frozen caller.
func SwitchesOf(Engine) int64 { return 0 }

var (
	_ Engine = (*Sparse)(nil)
	_ Engine = (*Bit)(nil)
)

// Report is one output event: reporting state State (carrying rule
// identifier Code) fired on the symbol at Offset. Score is the firing
// state's best-path score at fire time when the producing engine tracks
// scores (see Scorer), 0 otherwise.
type Report struct {
	Offset int64
	State  nfa.StateID
	Code   int32
	Score  int64
}

// EmitFunc receives report events as they happen.
type EmitFunc func(Report)

// Key returns the Zobrist key of state q, used to fingerprint enabled sets
// for the paper's near-zero-cost convergence checks (§3.3.3). Keys are a
// fixed pseudo-random function of the state ID (splitmix64), so
// fingerprints are stable across engines, flows and processes.
func Key(q nfa.StateID) uint64 {
	z := uint64(q) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sparse is the frontier-list engine. Create with NewSparse, seed with
// Reset, and advance with Step. Not safe for concurrent use.
type Sparse struct {
	n          *nfa.NFA
	isAllInput []bool
	baseline   bool          // re-enable all-input states every step
	frontier   []nfa.StateID // enabled states, excluding all-input states
	next       []nfa.StateID
	fired      []nfa.StateID
	mark       []int32
	epoch      int32
	fp         uint64 // XOR of Key over frontier
	trans      int64

	// Score tracking (see Scorer): two per-state arrays swapped each Step —
	// a state can be both a frontier member and a child in the same step
	// (self-loops), so in-place updates would read half-written values.
	// Validity is gated by frontier membership (mark/epoch): a stale slot is
	// never read, so pool reuse needs no clearing beyond ResetScored.
	scoring  bool
	scoreCur []int64
	scoreNxt []int64
}

// NewSparse returns an engine positioned at the automaton's start
// configuration (start-of-data states enabled), with baseline injection on:
// all-input states fire at every step.
func NewSparse(n *nfa.NFA) *Sparse {
	e := &Sparse{
		n:          n,
		isAllInput: make([]bool, n.Len()),
		baseline:   true,
		mark:       make([]int32, n.Len()),
	}
	for _, q := range n.AllInputStates() {
		e.isAllInput[q] = true
	}
	e.Reset(n.StartStates())
	return e
}

// SetBaseline switches baseline injection. With it off, the engine tracks
// only seed-derived ("enumeration") activity: all-input states never fire
// and are never entered. By NFA additivity, a full flow's behaviour is
// exactly the union of such a run and the baseline-only run — PAP exploits
// this to simulate the shared baseline once (in the ASG flow) instead of
// once per flow. Matches on hardware are unaffected: there, the shared
// automaton fires all-input states in every flow.
func (e *Sparse) SetBaseline(on bool) { e.baseline = on }

// Reset replaces the frontier with the given seed states (all-input states
// in the seed are dropped: they are implicitly always enabled). Duplicates
// in seed are removed. The transition counter is preserved.
func (e *Sparse) Reset(seed []nfa.StateID) {
	e.ResetScored(seed, nil)
}

// SetScoring switches score tracking (see Scorer).
func (e *Sparse) SetScoring(on bool) {
	e.scoring = on
	if on && e.scoreCur == nil {
		e.scoreCur = make([]int64, e.n.Len())
		e.scoreNxt = make([]int64, e.n.Len())
	}
}

// ResetScored is Reset with per-seed entry scores (see Scorer). scores may
// be nil; ignored unless scoring is on.
func (e *Sparse) ResetScored(seed []nfa.StateID, scores []int64) {
	e.epoch++
	e.frontier = e.frontier[:0]
	e.fp = 0
	for i, q := range seed {
		var sc int64
		if e.scoring && scores != nil {
			sc = scores[i]
		}
		if e.isAllInput[q] {
			continue
		}
		if e.mark[q] == e.epoch {
			if e.scoring && sc > e.scoreCur[q] {
				e.scoreCur[q] = sc
			}
			continue
		}
		e.mark[q] = e.epoch
		e.frontier = append(e.frontier, q)
		e.fp ^= Key(q)
		if e.scoring {
			e.scoreCur[q] = sc
		}
	}
}

// FrontierScore returns the best-path score of enabled state q.
func (e *Sparse) FrontierScore(q nfa.StateID) int64 {
	if !e.scoring || e.isAllInput[q] {
		return 0
	}
	return e.scoreCur[q]
}

// StepBatch is exactly one Step: the sparse engine is per-state work
// already, batching buys nothing.
func (e *Sparse) StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	e.Step(input[0], off, emit)
	l := len(e.frontier)
	return 1, int64(l), l
}

// Step consumes one symbol at the given input offset. emit may be nil.
func (e *Sparse) Step(sym byte, off int64, emit EmitFunc) {
	if e.scoring {
		e.stepScored(sym, off, emit)
		return
	}
	e.epoch++
	next := e.next[:0]
	fired := e.fired[:0]
	var fp uint64
	n := e.n
	process := func(q nfa.StateID) {
		st := n.State(q)
		if !st.Label.Test(sym) {
			return
		}
		fired = append(fired, q)
		if st.Flags&nfa.Report != 0 && emit != nil {
			emit(Report{Offset: off, State: q, Code: st.ReportCode})
		}
		succ := n.Succ(q)
		e.trans += int64(len(succ))
		for _, c := range succ {
			if e.isAllInput[c] || e.mark[c] == e.epoch {
				continue
			}
			e.mark[c] = e.epoch
			next = append(next, c)
			fp ^= Key(c)
		}
	}
	for _, q := range e.frontier {
		process(q)
	}
	if e.baseline {
		for _, q := range n.AllInputStates() {
			process(q)
		}
	}
	e.next, e.frontier = e.frontier, next
	e.fired = fired
	e.fp = fp
}

// stepScored is Step with score propagation: the scored twin of the loop
// above, kept separate so the unscored path stays score-free. On firing,
// state q contributes base+weight to each child's next score (base is q's
// current score, 0 for all-input states), and children reached by several
// parents keep the maximum.
func (e *Sparse) stepScored(sym byte, off int64, emit EmitFunc) {
	e.epoch++
	next := e.next[:0]
	fired := e.fired[:0]
	var fp uint64
	n := e.n
	cur, nxt := e.scoreCur, e.scoreNxt
	process := func(q nfa.StateID, base int64) {
		st := n.State(q)
		if !st.Label.Test(sym) {
			return
		}
		fired = append(fired, q)
		if st.Flags&nfa.Report != 0 && emit != nil {
			emit(Report{Offset: off, State: q, Code: st.ReportCode, Score: base})
		}
		succ := n.Succ(q)
		w := n.SuccScores(q)
		e.trans += int64(len(succ))
		for i, c := range succ {
			if e.isAllInput[c] {
				continue
			}
			cand := base
			if w != nil {
				cand += int64(w[i])
			}
			if e.mark[c] == e.epoch {
				if cand > nxt[c] {
					nxt[c] = cand
				}
				continue
			}
			e.mark[c] = e.epoch
			next = append(next, c)
			fp ^= Key(c)
			nxt[c] = cand
		}
	}
	for _, q := range e.frontier {
		process(q, cur[q])
	}
	if e.baseline {
		for _, q := range n.AllInputStates() {
			process(q, 0)
		}
	}
	e.next, e.frontier = e.frontier, next
	e.scoreCur, e.scoreNxt = nxt, cur
	e.fired = fired
	e.fp = fp
}

// FrontierLen returns the number of enabled states (excluding all-input).
func (e *Sparse) FrontierLen() int { return len(e.frontier) }

// AppendFrontier appends the enabled states to dst and returns it.
func (e *Sparse) AppendFrontier(dst []nfa.StateID) []nfa.StateID {
	return append(dst, e.frontier...)
}

// AppendFired appends the states that fired on the most recent Step.
func (e *Sparse) AppendFired(dst []nfa.StateID) []nfa.StateID {
	return append(dst, e.fired...)
}

// Dead reports whether the frontier is empty: the flow has no activity
// beyond the always-enabled baseline (deactivation check, §3.3.4).
func (e *Sparse) Dead() bool { return len(e.frontier) == 0 }

// Fingerprint returns the Zobrist fingerprint of the frontier. Two flows
// with equal fingerprints are convergence candidates; equality must be
// confirmed by comparing the frontiers themselves.
func (e *Sparse) Fingerprint() uint64 { return e.fp }

// Stats returns the cumulative number of transition-edge traversals
// (successor activations) performed; Sparse has no other counter.
func (e *Sparse) Stats() Stats { return Stats{Transitions: e.trans} }

// FrontierSet materialises the frontier as a bit vector (the AP state
// vector, minus the always-set all-input bits).
func (e *Sparse) FrontierSet() *bitset.Set {
	s := bitset.New(e.n.Len())
	for _, q := range e.frontier {
		s.Set(int(q))
	}
	return s
}

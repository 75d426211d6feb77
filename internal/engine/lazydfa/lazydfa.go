// Package lazydfa provides a fourth engine.Engine backend that
// determinizes the NFA frontier on the fly, the way lazy-DFA regex
// engines (and the Rabin-fingerprint SDFA line of work) avoid re-deriving
// the same successor set over and over: each distinct frontier becomes one
// cached DFA state, keyed by its Zobrist fingerprint with full-member
// collision verification, and each (state, symbol, baseline-mode) step is
// resolved once into a cached edge carrying everything the step
// observably does — the successor state, the transition-count delta, the
// fired-state list, and the report templates. Replaying a cached edge is
// therefore bit-identical to stepping the sparse engine, including the
// Transitions energy proxy, so the conformance harness holds lazydfa to
// the same exact-equality bar as the other backends.
//
// The cache is bounded: when it reaches its state cap it is flushed (an
// LRU-of-generations policy — the live working set re-interns itself on
// demand), and after too many flushes the engine concludes the workload
// is cache-hostile (dense, ever-changing frontiers) and falls back
// permanently to an inner engine — sparse by default, or whatever the
// caller supplies (engine.MetaKind supplies the Bit engine).
// Cumulative counters carry across the fallback, so observables stay
// exact through the switch.
package lazydfa

import (
	"sort"

	"pap/internal/bitset"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// Default cache bounds: MaxStates caps distinct cached frontiers per
// engine (each costs ~2 KiB per touched baseline mode for its edge
// table); MaxFlushes is how many whole-cache flushes are tolerated before
// the engine falls back permanently.
const (
	DefaultMaxStates  = 2048
	DefaultMaxFlushes = 2
)

// Config bounds the state cache. Zero fields select the defaults.
type Config struct {
	MaxStates  int
	MaxFlushes int
}

type report struct {
	state nfa.StateID
	code  int32
}

// edge is one fully-resolved (state, symbol, baseline-mode) step.
type edge struct {
	next    *dstate
	trans   int64 // Σ |succ(q)| over fired q — the sparse engine's delta
	fired   []nfa.StateID
	reports []report
}

// dstate is one determinized frontier: a sorted member set (all-input
// states excluded, as in every engine's frontier) plus per-mode edge
// tables, allocated lazily because most runs use one baseline mode.
type dstate struct {
	members []nfa.StateID
	fp      uint64
	edges   [2]*[256]*edge
}

// Engine is the lazy-DFA backend. Not safe for concurrent use.
type Engine struct {
	n          *nfa.NFA
	isAllInput []bool
	baseline   bool
	cfg        Config

	cur   *dstate
	cache map[uint64][]*dstate
	nst   int
	empty *dstate // interned once; survives flushes (it is the hot state)

	flushes                 int
	hits, misses, evictions int64
	trans                   int64
	lastFired               []nfa.StateID

	fb    engine.Engine // non-nil after permanent fallback
	newFB func() engine.Engine

	mark    []int32
	epoch   int32
	scratch []nfa.StateID
}

// New returns a lazy-DFA engine with default bounds and a sparse
// fallback, positioned at the automaton's start configuration with
// baseline injection on. tab is accepted for signature symmetry with the
// other backends; the lazy DFA tests labels directly and only passes tab
// through to a table-using fallback.
func New(n *nfa.NFA, tab *engine.Tables) *Engine {
	return NewWithFallback(n, Config{}, func() engine.Engine { return engine.NewSparse(n) })
}

// NewWithFallback is New with explicit cache bounds and fallback factory
// (nil selects sparse). The factory runs at most once, at permanent
// fallback time.
func NewWithFallback(n *nfa.NFA, cfg Config, newFB func() engine.Engine) *Engine {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = DefaultMaxStates
	}
	if cfg.MaxFlushes < 0 {
		cfg.MaxFlushes = 0
	} else if cfg.MaxFlushes == 0 {
		cfg.MaxFlushes = DefaultMaxFlushes
	}
	if newFB == nil {
		newFB = func() engine.Engine { return engine.NewSparse(n) }
	}
	e := &Engine{
		n:          n,
		isAllInput: make([]bool, n.Len()),
		baseline:   true,
		cfg:        cfg,
		newFB:      newFB,
		mark:       make([]int32, n.Len()),
	}
	for _, q := range n.AllInputStates() {
		e.isAllInput[q] = true
	}
	e.cache = make(map[uint64][]*dstate)
	e.empty = e.intern(nil)
	e.Reset(n.StartStates())
	return e
}

// Reset replaces the frontier with the given seed states (all-input
// dropped, duplicates removed); cumulative counters are preserved.
func (e *Engine) Reset(seed []nfa.StateID) {
	if e.fb != nil {
		e.fb.Reset(seed)
		return
	}
	e.lastFired = nil
	e.epoch++
	ids := e.scratch[:0]
	for _, q := range seed {
		if e.isAllInput[q] || e.mark[q] == e.epoch {
			continue
		}
		e.mark[q] = e.epoch
		ids = append(ids, q)
	}
	e.scratch = ids
	sortIDs(ids)
	e.cur = e.intern(ids)
	if e.fb != nil { // intern may have exhausted the flush budget
		e.fb.SetBaseline(e.baseline)
		e.fb.Reset(seed)
	}
}

// SetBaseline switches all-input injection (see engine.Sparse.SetBaseline
// for the decomposition contract). Cached states keep separate edge
// tables per mode, so toggling never invalidates the cache.
func (e *Engine) SetBaseline(on bool) {
	e.baseline = on
	if e.fb != nil {
		e.fb.SetBaseline(on)
	}
}

// StepBatch is exactly one Step.
func (e *Engine) StepBatch(input []byte, off int64, emit engine.EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	e.Step(input[0], off, emit)
	l := e.FrontierLen()
	return 1, int64(l), l
}

// Step consumes one symbol at the given input offset. emit may be nil.
func (e *Engine) Step(sym byte, off int64, emit engine.EmitFunc) {
	if e.fb != nil {
		e.fb.Step(sym, off, emit)
		return
	}
	mode := 0
	if e.baseline {
		mode = 1
	}
	tab := e.cur.edges[mode]
	if tab == nil {
		tab = new([256]*edge)
		e.cur.edges[mode] = tab
	}
	ed := tab[sym]
	if ed == nil {
		e.misses++
		ed = e.determinize(e.cur, sym)
		if e.fb != nil {
			// Interning the successor exhausted the cache budget: the
			// fallback engine was seeded with the pre-step frontier and now
			// takes the step itself.
			e.fb.Step(sym, off, emit)
			return
		}
		tab[sym] = ed
	} else {
		e.hits++
	}
	e.trans += ed.trans
	if emit != nil {
		for _, r := range ed.reports {
			emit(engine.Report{Offset: off, State: r.state, Code: r.code})
		}
	}
	e.lastFired = ed.fired
	e.cur = ed.next
}

// determinize resolves one (state, symbol) edge under the current
// baseline mode, reproducing exactly what the sparse engine's Step does:
// fired = label-matching members (plus all-input states when baseline is
// on), trans = Σ successor counts over fired, next = the deduplicated
// non-all-input successor union. On cache exhaustion it may trigger
// permanent fallback, in which case the returned edge is meaningless and
// e.fb is set.
func (e *Engine) determinize(d *dstate, sym byte) *edge {
	n := e.n
	ed := &edge{}
	e.epoch++
	next := e.scratch[:0]
	fire := func(q nfa.StateID) {
		st := n.State(q)
		if !st.Label.Test(sym) {
			return
		}
		ed.fired = append(ed.fired, q)
		if st.Flags&nfa.Report != 0 {
			ed.reports = append(ed.reports, report{state: q, code: st.ReportCode})
		}
		succ := n.Succ(q)
		ed.trans += int64(len(succ))
		for _, c := range succ {
			if e.isAllInput[c] || e.mark[c] == e.epoch {
				continue
			}
			e.mark[c] = e.epoch
			next = append(next, c)
		}
	}
	for _, q := range d.members {
		fire(q)
	}
	if e.baseline {
		for _, q := range n.AllInputStates() {
			fire(q)
		}
	}
	e.scratch = next
	sortIDs(next)
	ed.next = e.intern(next)
	if e.fb != nil {
		// Fallback fired while interning: seed it with the *pre-step*
		// frontier so the caller can replay this step on it.
		e.fb.SetBaseline(e.baseline)
		e.fb.Reset(d.members)
		return nil
	}
	return ed
}

// intern returns the canonical cached state for the sorted member set,
// copying ids on first sight. Reaching the cap flushes the cache while
// budget remains, then triggers permanent fallback (e.fb becomes
// non-nil and the return value must not be used).
func (e *Engine) intern(ids []nfa.StateID) *dstate {
	fp := uint64(0)
	for _, q := range ids {
		fp ^= engine.Key(q)
	}
	for _, d := range e.cache[fp] {
		if equalIDs(d.members, ids) {
			return d
		}
	}
	if e.nst >= e.cfg.MaxStates {
		if e.flushes >= e.cfg.MaxFlushes {
			e.evictions += int64(e.nst)
			e.cache = nil
			e.nst = 0
			e.fb = e.newFB()
			return nil
		}
		e.flush()
	}
	d := &dstate{members: append([]nfa.StateID(nil), ids...), fp: fp}
	e.cache[fp] = append(e.cache[fp], d)
	e.nst++
	return d
}

// flush empties the cache (counting every dropped state as an eviction)
// and re-interns the empty state, which every quiet run returns to.
func (e *Engine) flush() {
	e.flushes++
	e.evictions += int64(e.nst)
	e.cache = make(map[uint64][]*dstate)
	e.nst = 0
	e.empty = &dstate{}
	e.cache[0] = append(e.cache[0], e.empty)
	e.nst++
}

// FrontierLen returns the number of enabled states (excluding all-input).
func (e *Engine) FrontierLen() int {
	if e.fb != nil {
		return e.fb.FrontierLen()
	}
	return len(e.cur.members)
}

// Dead reports whether the frontier is empty.
func (e *Engine) Dead() bool {
	if e.fb != nil {
		return e.fb.Dead()
	}
	return len(e.cur.members) == 0
}

// Fingerprint returns the Zobrist fingerprint of the frontier.
func (e *Engine) Fingerprint() uint64 {
	if e.fb != nil {
		return e.fb.Fingerprint()
	}
	return e.cur.fp
}

// Stats returns the cache counters plus, carried across cache flushes and
// fallback, the cumulative transition count.
func (e *Engine) Stats() engine.Stats {
	st := engine.Stats{
		Transitions: e.trans,
		Cache: engine.CacheStats{
			Hits:      e.hits,
			Misses:    e.misses,
			Evictions: e.evictions,
			States:    e.nst,
			Flushes:   e.flushes,
			FellBack:  e.fb != nil,
		},
	}
	if e.fb != nil {
		st.Transitions += e.fb.Stats().Transitions
	}
	return st
}

// AppendFrontier appends the enabled states (ascending) to dst.
func (e *Engine) AppendFrontier(dst []nfa.StateID) []nfa.StateID {
	if e.fb != nil {
		return e.fb.AppendFrontier(dst)
	}
	return append(dst, e.cur.members...)
}

// AppendFired appends the states that fired on the most recent Step.
func (e *Engine) AppendFired(dst []nfa.StateID) []nfa.StateID {
	if e.fb != nil {
		return e.fb.AppendFired(dst)
	}
	return append(dst, e.lastFired...)
}

// FrontierSet materialises the frontier as a fresh bit vector.
func (e *Engine) FrontierSet() *bitset.Set {
	if e.fb != nil {
		return e.fb.FrontierSet()
	}
	s := bitset.New(e.n.Len())
	for _, q := range e.cur.members {
		s.Set(int(q))
	}
	return s
}

func init() {
	engine.RegisterLazyDFA(func(n *nfa.NFA, tab *engine.Tables, newFB func() engine.Engine) engine.Engine {
		return NewWithFallback(n, Config{}, newFB)
	})
}

var _ engine.Engine = (*Engine)(nil)

func sortIDs(ids []nfa.StateID) {
	if len(ids) > 32 {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return
	}
	// Insertion sort: small frontiers are built from sorted successor
	// lists and arrive nearly sorted.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
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

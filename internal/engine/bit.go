package engine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"pap/internal/bitset"
	"pap/internal/nfa"
	"pap/internal/prefilter"
)

// Tables holds per-automaton precomputed match vectors: for each symbol σ,
// the set of states whose label contains σ. On the AP this is the DRAM row
// addressed by σ; reading it is the state-match phase. Tables are built
// lazily per symbol with atomic publication, so one Tables may be shared by
// any number of engines across goroutines (the engines themselves remain
// single-goroutine). Call BuildAll to pay the whole construction cost up
// front instead.
type Tables struct {
	n     *nfa.NFA
	match [256]atomic.Pointer[bitset.Set]

	// bg holds, per symbol, the all-input half of a bit engine's background
	// (see bgEntry) — what the all-input states the symbol fires contribute
	// to a step while the baseline is on — built lazily and published
	// atomically, like match.
	bg [256]atomic.Pointer[bgEntry]

	// pfOnce/pf lazily build the automaton's prefilter, shared by every
	// Meta cursor over this automaton (see Prefilter).
	pfOnce sync.Once
	pf     *prefilter.Prefilter

	// staticOnce caches what every bit engine over the automaton reads and
	// none writes: the all-input mask, the reporting-state mask and codes,
	// and the latchable mask, so the batched kernel reads plain arrays
	// instead of calling back into the NFA per fired state (the successor
	// lists it walks are the NFA's own CSR arrays, see nfa.SuccCSR).
	staticOnce sync.Once
	allIn      *bitset.Set
	repWord    []uint64 // reporting-state mask, bit-vector word layout
	repCode    []int32  // per-state report code
	latchable  []uint64 // states that stay on once on (see Bit.latch), same layout

	// skipOnce compiles the baseline-skip scanner: the byte class that can
	// move a frontier off the ASG-only baseline (exactly the prefilter
	// start class), or nil when scanning cannot pay off.
	skipOnce sync.Once
	skip     *prefilter.ClassScanner
}

// Prefilter returns the automaton's compiled prefilter, built on first
// use and shared by every engine over these tables (it is immutable and
// safe for concurrent use).
func (t *Tables) Prefilter() *prefilter.Prefilter {
	t.pfOnce.Do(func() { t.pf = prefilter.Build(t.n) })
	return t.pf
}

// NewTables returns empty (lazily filled) match tables for n.
func NewTables(n *nfa.NFA) *Tables { return &Tables{n: n} }

// Match returns the match vector for symbol sym, building it on first use.
// Concurrent first uses may build duplicate vectors; exactly one wins the
// publication race and all callers observe that one thereafter.
func (t *Tables) Match(sym byte) *bitset.Set {
	if m := t.match[sym].Load(); m != nil {
		return m
	}
	m := bitset.New(t.n.Len())
	for q := 0; q < t.n.Len(); q++ {
		if t.n.Label(nfa.StateID(q)).Test(sym) {
			m.Set(q)
		}
	}
	if t.match[sym].CompareAndSwap(nil, m) {
		return m
	}
	return t.match[sym].Load()
}

// Built returns how many symbols' match vectors have been built so far.
func (t *Tables) Built() int {
	built := 0
	for s := range t.match {
		if t.match[s].Load() != nil {
			built++
		}
	}
	return built
}

// BuildAll eagerly fills every symbol's match vector and returns t.
func (t *Tables) BuildAll() *Tables {
	for s := 0; s < 256; s++ {
		t.Match(byte(s))
	}
	return t
}

// static builds (once) the all-input mask, the reporting-state mask and
// codes and the latchable mask shared, read-only, by every bit engine over
// these tables.
//
// A state is latchable when it matches every byte, has an edge to itself
// and is neither all-input nor reporting: the self-loop half of the paper's
// Active State Group (§3.3.2). Once enabled it fires on every symbol and
// re-enables itself, so what it contributes to a step never changes again.
// All-input states are the other half and stop firing only when the
// baseline goes off; a reporting state must keep emitting, so it stays in
// the per-symbol background instead.
func (t *Tables) static() {
	t.staticOnce.Do(func() {
		n := t.n
		t.allIn = bitset.New(n.Len())
		for _, q := range n.AllInputStates() {
			t.allIn.Set(int(q))
		}
		t.repWord = make([]uint64, len(t.allIn.Words()))
		t.repCode = make([]int32, n.Len())
		t.latchable = make([]uint64, len(t.allIn.Words()))
		for q := 0; q < n.Len(); q++ {
			st := n.State(nfa.StateID(q))
			if st.Flags&nfa.Report != 0 {
				t.repWord[q>>6] |= 1 << (uint(q) & 63)
			}
			t.repCode[q] = st.ReportCode
			if st.Flags&(nfa.Report|nfa.AllInput) == 0 && st.Label == nfa.AnyClass() &&
				slices.Contains(n.Succ(nfa.StateID(q)), nfa.StateID(q)) {
				t.latchable[q>>6] |= 1 << (uint(q) & 63)
			}
		}
	})
}

// BaselineSkip returns the automaton's baseline-skip scanner — the exact
// byte class that can fire an all-input state, compiled once per Tables —
// or nil when the class saturates the alphabet and scanning cannot pay
// off. It shares the prefilter's start-class machinery and is safe for
// concurrent use.
func (t *Tables) BaselineSkip() *prefilter.ClassScanner {
	t.skipOnce.Do(func() {
		if s := prefilter.NewClassScanner(prefilter.StartClass(t.n)); s.Useful() {
			t.skip = s
		}
	})
	return t.skip
}

// bgEntry is one half of a symbol's background: the states a bit engine
// fires on σ whatever its delta holds, with all a step needs of them,
// packed into one list cut in four (see the accessors). The all-input half
// is A ∩ match[σ], fired while the baseline is on and shared through the
// Tables; the latch half is (K ∖ C ∖ A) ∩ match[σ] — what the latch
// enables (K = latchNx) less the latched states C, which fire on every
// symbol, and A — cached per engine and latched set. An entry is immutable
// once built.
type bgEntry struct {
	ids        []nfa.StateID
	nf, nr, nl int32 // ends of the fired, reporting and latchable parts of ids
	trans      int64 // Σ out-degree over fired ∖ latch
}

// fired is the entry's fired states, ascending.
func (b *bgEntry) fired() []nfa.StateID { return b.ids[:b.nf] }

// rep is the reporting states of fired, ascending.
func (b *bgEntry) rep() []nfa.StateID { return b.ids[b.nf:b.nr] }

// latch is the latchable states of fired (none latched yet: C is left out).
func (b *bgEntry) latch() []nfa.StateID { return b.ids[b.nr:b.nl] }

// succ is succ(fired ∖ latch) less what the entry's key already makes
// enabled or never-enabled (A, and K for the latch half). A state two fired
// states share is listed twice: the step ORs the list into a vector.
func (b *bgEntry) succ() []nfa.StateID { return b.ids[b.nl:] }

// noBackground is the empty half: the all-input one with the baseline off,
// the latch one with nothing latched.
var noBackground bgEntry

// background returns the all-input half of sym's background, building it on
// first use. Concurrent first uses may build duplicates; one wins the
// publication race, as in Match. The entries stay
// with the automaton, so a symbol whose entry is empty shares noBackground
// and the others hold exactly their lists.
func (t *Tables) background(sym byte) *bgEntry {
	if b := t.bg[sym].Load(); b != nil {
		return b
	}
	b := &noBackground
	if ent, ids := t.appendBackground(nil, t.Match(sym).Words(), nil, nil, nil); len(ids) > 0 {
		ent.ids = slices.Clone(ids)
		b = &ent
	}
	if t.bg[sym].CompareAndSwap(nil, b) {
		return b
	}
	return t.bg[sym].Load()
}

// appendBackground returns the background half of match vector mW — the
// latch half of latch (kW, cW), whose non-zero words of K ∖ C ∖ A are
// words, or the all-input half when kW is nil — its list appended to ids,
// and ids.
func (t *Tables) appendBackground(ids []nfa.StateID, mW, kW, cW []uint64, words []int32) (bgEntry, []nfa.StateID) {
	start := len(ids)
	aW := t.allIn.Words()
	add := func(wi int, w uint64) {
		for w &= mW[wi]; w != 0; w &= w - 1 {
			ids = append(ids, nfa.StateID(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	if kW == nil {
		for wi, w := range aW {
			add(wi, w)
		}
	} else {
		for _, wi := range words {
			add(int(wi), kW[wi]&^cW[wi]&^aW[wi])
		}
	}
	nf := len(ids)
	for _, q := range ids[start:nf] {
		if t.repWord[q>>6]&(1<<(uint(q)&63)) != 0 {
			ids = append(ids, q)
		}
	}
	nr := len(ids)
	for _, q := range ids[start:nf] {
		if t.latchable[q>>6]&(1<<(uint(q)&63)) != 0 {
			ids = append(ids, q)
		}
	}
	nl := len(ids)
	var trans int64
	for i := start; i < nf; i++ {
		q := ids[i]
		if t.latchable[q>>6]&(1<<(uint(q)&63)) != 0 {
			continue
		}
		succ := t.n.Succ(q)
		trans += int64(len(succ))
		for _, c := range succ {
			wi, bit := c>>6, uint64(1)<<(uint(c)&63)
			if aW[wi]&bit == 0 && (kW == nil || kW[wi]&bit == 0) {
				ids = append(ids, c)
			}
		}
	}
	return bgEntry{
		ids: ids[start:len(ids):len(ids)],
		nf:  int32(nf - start), nr: int32(nr - start), nl: int32(nl - start),
		trans: trans,
	}, ids
}

// bgSlotCount is how many latched sets a bit engine keeps the latch halves
// of. core reloads a flow with Reset, which drops the latch, and the flow
// relatches the same set on its first symbol: a few slots let the flows of
// a segment take turns on one engine without rebuilding their entries.
// Under MatchParallel on the repository benchmark's clamav_enum, a lookup
// finds its set with 1, 2, 4, 8 and 16 slots 32, 61, 87, 95 and 99 % of the
// time; on dotstar_dense flows keep forming sets they have not had before,
// and no count helps.
const bgSlotCount = 8

// bgSettleSteps is how many symbols a latched set is stepped before its
// latch halves are built. An entry costs a few steps' worth of work and
// pays only on the later occurrences of its symbol under the same set, so
// while the set keeps changing — an automaton whose '.*' states come on one
// by one over the input — the step walks what the latch enables with the
// rest of the frontier instead.
const bgSettleSteps = 256

// bgCache is a bit engine's latch halves, created at its first latch: one
// slot per latched set.
type bgCache struct {
	slots  [bgSlotCount]bgSlot
	claims int // settled slots evicted so far, round-robin
}

// bgSlot holds the latch halves of one latched set, built lazily per
// symbol once the set has been stepped bgSettleSteps symbols.
type bgSlot struct {
	fp      uint64   // Key-fingerprint of latched
	latched []uint64 // the latched set itself: no fingerprint collision can alias two keys
	words   []int32  // the vector words where K ∖ C ∖ A is non-zero
	steps   int      // symbols stepped under the set, up to bgSettleSteps
	ent     [256]int32
	ents    []bgEntry     // ent[σ] is 1 + the index of σ's entry, 0 before it is built
	ids     []nfa.StateID // the entries' lists, packed
}

// Bit is the dense state-vector engine, mirroring the AP's per-STE enable
// mask and State Vector Cache entries. Its batched step does not pay for
// what cannot change: the states the latch enables (see latch) and the
// all-input states fire the same way on every occurrence of a symbol, so
// what they contribute is one precomputed per-symbol background entry
// (bgEntry), and a step walks only the live delta beside it — the AP's
// Active State Group costing nothing per cycle (§3.3.2). A step costs the
// delta's states and edges plus the entry's lists, not ⌈states/64⌉ words,
// and so does a batch boundary: the delta stays split out between calls and
// the vectors are materialised only when an observer reads them. It is the
// engine Auto builds for every automaton.
type Bit struct {
	n        *nfa.NFA
	tab      *Tables
	baseline bool
	enabled  *bitset.Set // excluding all-input states
	firedBs  *bitset.Set
	scratch  *bitset.Set
	allIn    *bitset.Set // shared with the Tables, read-only
	trans    int64

	// The latch (see latch): which latchable states have fired since the
	// last Reset (C), the union of their successors (K), the sum of their
	// out-degrees — 0 exactly when nothing is latched — |K ∖ A|, and the
	// fingerprint of C that keys the background cache.
	latched    *bitset.Set
	latchNx    *bitset.Set
	latchTrans int64
	latchLive  int
	latchFP    uint64

	// The background-plus-delta step (see StepBatch): the summary of the
	// delta D = enabled ∖ K (a bit per non-zero vector word; D itself is in
	// scratch), the delta words fired on the current symbol and their
	// reporting states (each first carved from the arrays beside them), and
	// the latch halves of the background with the slot of the current
	// latched set (nil until looked up).
	deltaSum []uint64
	fired    []firedWord
	reps     []nfa.StateID
	sumBuf   [1]uint64
	firedBuf [2]firedWord
	repsBuf  [2]nfa.StateID
	bg       *bgCache
	bgCur    *bgSlot

	// What the batched step keeps between calls, so that a batch boundary
	// costs the delta's live words and not the vector's length. count is
	// the frontier length, always. While split is set the frontier is
	// (K ∖ A) ∪ D, with D in scratch — live non-zero words, summarised in
	// deltaSum when summed; a scalar step clears it. stale and firedStale report that enabled and firedBs
	// lag behind: firedBs is then C, the last step's background halves
	// lastAll and lastLat and its fired delta words, in fired when listed
	// and in firedBs otherwise (see frontier and firedSet).
	count, live       int
	split, summed     bool
	stale, firedStale bool
	listed            bool
	lastAll, lastLat  *bgEntry

	// Score tracking (see Scorer): per-state arrays parallel to the enabled
	// and scratch bit vectors, swapped alongside them each step. A slot is
	// valid only while its bit is set, so stale values are never read.
	scoring  bool
	scoreCur []int64
	scoreNxt []int64
}

// NewBit returns a Bit engine at the start configuration, sharing tab.
func NewBit(n *nfa.NFA, tab *Tables) *Bit {
	if tab == nil {
		tab = NewTables(n)
	}
	tab.static()
	vecs := bitset.NewGroup(n.Len(), 5)
	e := &Bit{
		n:        n,
		tab:      tab,
		baseline: true,
		enabled:  &vecs[0],
		firedBs:  &vecs[1],
		scratch:  &vecs[2],
		allIn:    tab.allIn,
		latched:  &vecs[3],
		latchNx:  &vecs[4],
	}
	e.deltaSum = e.sumBuf[:]
	if sw := (len(vecs[0].Words()) + 63) / 64; sw > 1 {
		e.deltaSum = make([]uint64, sw)
	}
	e.fired, e.reps = e.firedBuf[:0], e.repsBuf[:0]
	e.Reset(n.StartStates())
	return e
}

// Reset replaces the enabled vector with the given seed states.
func (e *Bit) Reset(seed []nfa.StateID) {
	e.ResetScored(seed, nil)
}

// SetScoring switches score tracking (see Scorer).
func (e *Bit) SetScoring(on bool) {
	e.scoring = on
	if on && e.scoreCur == nil {
		e.scoreCur = make([]int64, e.n.Len())
		e.scoreNxt = make([]int64, e.n.Len())
	}
}

// ResetScored is Reset with per-seed entry scores (see Scorer). scores may
// be nil; ignored unless scoring is on.
//
// The seed becomes the delta (see StepBatch): the old delta's words are
// cleared through its summary when it has one, so a Reset costs the seed
// and the live words, and enabled is left stale until an observer reads it.
func (e *Bit) ResetScored(seed []nfa.StateID, scores []int64) {
	if e.latchTrans != 0 {
		e.firedSet() // firedBs holds C, which goes now
		// The new frontier need not hold the latched states; those it does
		// hold latch again on their first batched step.
		e.latched.Reset()
		e.latchNx.Reset()
		e.latchTrans, e.latchLive, e.latchFP = 0, 0, 0
		e.bgCur = nil
	}
	dv, ds := e.scratch.Words(), e.deltaSum
	if e.split && e.summed {
		for si, sw := range ds {
			if sw == 0 {
				continue
			}
			for ; sw != 0; sw &= sw - 1 {
				dv[si<<6|bits.TrailingZeros64(sw)] = 0
			}
			ds[si] = 0
		}
	} else {
		clear(dv)
		clear(ds)
	}
	aW := e.allIn.Words()
	count, live := 0, 0
	for i, q := range seed {
		wi, bit := q>>6, uint64(1)<<(uint(q)&63)
		if aW[wi]&bit != 0 {
			continue
		}
		if e.scoring {
			var sc int64
			if scores != nil {
				sc = scores[i]
			}
			if dv[wi]&bit == 0 || sc > e.scoreCur[q] {
				e.scoreCur[q] = sc
			}
		}
		if dv[wi] == 0 {
			ds[wi>>6] |= 1 << (uint(wi) & 63)
			live++
		}
		if dv[wi]&bit == 0 {
			dv[wi] |= bit
			count++
		}
	}
	e.count, e.live = count, live
	e.split, e.summed, e.stale = true, true, true
}

// frontier returns enabled, first materialised from what the batched step
// keeps (see StepBatch) when it lags behind: (K ∖ A) ∪ D.
func (e *Bit) frontier() *bitset.Set {
	if e.stale {
		enW, kW, aW, dv := e.enabled.Words(), e.latchNx.Words(), e.allIn.Words(), e.scratch.Words()
		for i := range enW {
			enW[i] = kW[i]&^aW[i] | dv[i]
		}
		e.stale = false
	}
	return e.enabled
}

// firedSet returns firedBs, first materialised when it lags behind: C ∪
// the last step's background halves ∪ its fired delta states.
func (e *Bit) firedSet() *bitset.Set {
	if e.firedStale {
		fW := e.firedBs.Words()
		if e.listed {
			clear(fW)
			for _, fw := range e.fired {
				fW[fw.wi] = fw.bits
			}
		}
		for i, c := range e.latched.Words() {
			fW[i] |= c
		}
		for _, half := range [2]*bgEntry{e.lastAll, e.lastLat} {
			for _, q := range half.fired() {
				fW[q>>6] |= 1 << (uint(q) & 63)
			}
		}
		e.firedStale = false
	}
	return e.firedBs
}

// unsplit hands the frontier to a scalar step: enabled becomes the
// authority again, and the step rewrites firedBs.
func (e *Bit) unsplit() {
	e.frontier()
	e.split, e.firedStale = false, false
}

// splitFrontier splits enabled into K ∖ A and the delta D = enabled ∖ K,
// for the batched step to carry on from a scalar one.
func (e *Bit) splitFrontier() {
	kW, dv, ds := e.latchNx.Words(), e.scratch.Words(), e.deltaSum
	clear(ds)
	live := 0
	for wi, w := range e.enabled.Words() {
		if dv[wi] = w &^ kW[wi]; dv[wi] != 0 {
			ds[wi>>6] |= 1 << (uint(wi) & 63)
			live++
		}
	}
	e.live, e.split, e.summed = live, true, true
}

// FrontierScore returns the best-path score of enabled state q.
func (e *Bit) FrontierScore(q nfa.StateID) int64 {
	if !e.scoring || e.allIn.Test(int(q)) {
		return 0
	}
	return e.scoreCur[q]
}

// SetBaseline switches baseline injection; see Sparse.SetBaseline.
func (e *Bit) SetBaseline(on bool) { e.baseline = on }

// Step consumes one symbol at the given offset. emit may be nil.
func (e *Bit) Step(sym byte, off int64, emit EmitFunc) {
	if e.scoring {
		e.stepScored(sym, off, emit)
		return
	}
	e.unsplit()
	// State match phase: fired = (enabled ∪ allInput) ∩ match[sym].
	fired := e.firedBs
	fired.Copy(e.enabled)
	if e.baseline {
		fired.Or(e.allIn)
	}
	fired.And(e.tab.Match(sym))
	// State transition phase: next = ∪ succ(fired).
	next := e.scratch
	next.Reset()
	n := e.n
	fired.ForEach(func(i int) bool {
		q := nfa.StateID(i)
		st := n.State(q)
		if st.Flags&nfa.Report != 0 && emit != nil {
			emit(Report{Offset: off, State: q, Code: st.ReportCode})
		}
		succ := n.Succ(q)
		e.trans += int64(len(succ))
		for _, c := range succ {
			next.Set(int(c))
		}
		return true
	})
	next.AndNot(e.allIn)
	e.scratch, e.enabled = e.enabled, next
	e.count = next.Count()
}

// stepScored is Step with score propagation — the scored twin of Step,
// kept separate so the unscored path (and the batched StepBatch kernel)
// stays score-free. Scores live in per-state arrays keyed by the frontier
// bitset: scoreCur is valid where enabled is set, scoreNxt is built where
// next is set, and the arrays swap with the vectors.
func (e *Bit) stepScored(sym byte, off int64, emit EmitFunc) {
	e.unsplit()
	fired := e.firedBs
	fired.Copy(e.enabled)
	if e.baseline {
		fired.Or(e.allIn)
	}
	fired.And(e.tab.Match(sym))
	next := e.scratch
	next.Reset()
	n := e.n
	cur, nxt := e.scoreCur, e.scoreNxt
	fired.ForEach(func(i int) bool {
		q := nfa.StateID(i)
		var base int64
		if !e.allIn.Test(i) {
			base = cur[q]
		}
		st := n.State(q)
		if st.Flags&nfa.Report != 0 && emit != nil {
			emit(Report{Offset: off, State: q, Code: st.ReportCode, Score: base})
		}
		succ := n.Succ(q)
		w := n.SuccScores(q)
		e.trans += int64(len(succ))
		for si, c := range succ {
			cand := base
			if w != nil {
				cand += int64(w[si])
			}
			if !next.Test(int(c)) || cand > nxt[c] {
				nxt[c] = cand
			}
			next.Set(int(c))
		}
		return true
	})
	next.AndNot(e.allIn)
	e.scratch, e.enabled = e.enabled, next
	e.count = next.Count()
	e.scoreCur, e.scoreNxt = nxt, cur
}

// batchSymbols is the maximum number of symbols one StepBatch kernel
// invocation consumes: enough to amortise the per-call setup (looking up
// the tables and the kept delta) without starving callers that interleave
// per-batch bookkeeping (context polls, round bounds).
const batchSymbols = 64

// StepBatch consumes between 1 and len(input) symbols starting at absolute
// offset off, observably identical to calling Step once per consumed
// symbol. It returns the consumed count with the sum and maximum of the
// frontier length over the consumed symbols, so callers keep per-symbol
// frontier statistics exact. len(input) must be > 0. It steps a dead
// frontier like any other: skipping one is the Cursor's.
//
// The unscored kernel splits the frontier into the part only a Reset takes
// away, K ∖ A with K = latchNx (the latched states C are in it: each is its
// own successor), and the delta D = enabled ∖ K, held as bits. On symbol σ
// the fired states are C, the background — ((K ∖ C ∖ A) ∪ A-if-baseline) ∩
// match[σ], in two halves looked up once per symbol (see bgEntry) — and
// D ∩ match[σ], so a step
//
//  1. ANDs each live delta word with match[σ];
//  2. latches the fired latchable states (see latch);
//  3. emits the fired reporting states, merged in ascending state order;
//  4. ORs the background's successors and the fired delta states' edges
//     into the next delta, then drops K ∪ A from the words it touched;
//  5. counts the background's, the walked states' and the latch's
//     transitions;
//
// and the frontier is |K ∖ A| + |D′| states long. While the delta is
// sparse its live words are found through a summary with one bit per
// vector word, in ascending order up to the last of them, so its reports
// come out in state order, and a step costs the delta's live words, the
// fired states' edges and the background's lists, not the vector's
// length. While the latched set has not settled (see bgSettleSteps) there
// is no latch half: the words of K ∖ C ∖ A are scanned with the delta's and
// their fired states walked like the delta's. Once the delta, or K ∖ C ∖ A while it is walked, fills half
// the words a step passes over the words instead: it ANDs them all with
// match[σ] into the fired vector, then walks that.
//
// The delta, its summary and the frontier length outlive the call, so the
// next batch carries on from them and Dead and FrontierLen read the count:
// a call costs nothing per vector word at either end. The enabled and
// fired vectors are materialised only when an observer reads them (see
// frontier and firedSet); a scalar Step takes the frontier back from the
// delta, and the next batch splits it again.
func (e *Bit) StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	if e.scoring {
		// Score tracking runs through the scalar scored step; the batched
		// kernel below stays score-free so the unscored hot path is untouched.
		k := min(len(input), batchSymbols)
		for j := 0; j < k; j++ {
			e.stepScored(input[j], off+int64(j), emit)
			l := e.count
			sumFrontier += int64(l)
			if l > maxFrontier {
				maxFrontier = l
			}
			consumed++
			if l == 0 {
				break
			}
		}
		return consumed, sumFrontier, maxFrontier
	}
	k := min(len(input), batchSymbols)
	succOff, succ := e.n.SuccCSR()
	fW := e.firedBs.Words()
	W := len(fW)
	aW, kW, cW := e.allIn.Words()[:W], e.latchNx.Words()[:W], e.latched.Words()[:W]
	latchable, repWord := e.tab.latchable[:W], e.tab.repWord[:W]
	if !e.split {
		e.splitFrontier()
	}
	// The delta lives in scratch, and a step builds the next one there:
	// it empties every word it reads before it ORs in a successor. summed
	// reports that ds summarises dv.
	dv, ds := e.scratch.Words()[:W], e.deltaSum
	live, cnt, summed := e.live, e.count, e.summed
	dense := 2*live >= W
	// listed: the last step left its fired delta words in fired, not in fW.
	fired, reps, listed := e.fired, e.reps, false
	var all, lat *bgEntry
	trans := e.trans
	j := 0
	for j < k {
		sym := input[j]
		mW := e.tab.Match(sym).Words()[:W]
		var inline bool
		all, lat, inline = e.background(sym)
		reps = reps[:0]
		// The entry's latchable states latch first: the word scan below reads
		// K only when there is no entry.
		for _, q := range lat.latch() {
			e.latch(q)
		}
		trans += all.trans + lat.trans
		// fired = (D ∪ K ∖ C ∖ A if inline) ∩ match[σ], all of it before
		// any latching moves K; word by word once either covers half the
		// vector.
		words := dense || inline && 2*len(e.bgCur.words) >= W
		if words {
			// Word by word.
			if inline {
				for wi := range dv {
					fW[wi] = (dv[wi] | kW[wi]&^cW[wi]&^aW[wi]) & mW[wi]
					dv[wi] = 0
				}
			} else {
				for wi := range dv {
					fW[wi] = dv[wi] & mW[wi]
					dv[wi] = 0
				}
			}
			for wi, f := range fW {
				if f == 0 {
					continue
				}
				base := wi << 6
				if l := f & latchable[wi]; l != 0 {
					for f &^= l; l != 0; l &= l - 1 {
						e.latch(nfa.StateID(base | bits.TrailingZeros64(l)))
					}
				}
				if emit != nil {
					for r := f & repWord[wi]; r != 0; r &= r - 1 {
						reps = append(reps, nfa.StateID(base|bits.TrailingZeros64(r)))
					}
				}
				for ; f != 0; f &= f - 1 {
					q := base | bits.TrailingZeros64(f)
					lo, hi := succOff[q], succOff[q+1]
					trans += int64(hi - lo)
					orSucc(dv, nil, succ[lo:hi], false)
				}
			}
		} else {
			if !summed {
				clear(ds)
				for wi, w := range dv {
					if w != 0 {
						ds[wi>>6] |= 1 << (uint(wi) & 63)
					}
				}
				summed = true
			}
			if inline {
				// The words of K ∖ C ∖ A join the scan, in order with the
				// delta's.
				for _, wi := range e.bgCur.words {
					ds[wi>>6] |= 1 << (uint(wi) & 63)
				}
			}
			fired = fired[:0]
			// left counts the live delta words still to find, so that the
			// scan ends at the last of them, unless K ∖ C ∖ A joined it.
			left := live
			if inline {
				left = W
			}
			for si, sw := range ds {
				if left == 0 {
					break
				}
				if sw == 0 {
					continue
				}
				left -= bits.OnesCount64(sw)
				for ; sw != 0; sw &= sw - 1 {
					wi := si<<6 | bits.TrailingZeros64(sw)
					f := dv[wi]
					if inline {
						f |= kW[wi] &^ cW[wi] &^ aW[wi]
					}
					if f &= mW[wi]; f != 0 {
						fired = append(fired, firedWord{int32(wi), f})
					}
					dv[wi] = 0
				}
				ds[si] = 0
			}
			for _, fw := range fired {
				f, base := fw.bits, int(fw.wi)<<6
				if l := f & latchable[fw.wi]; l != 0 {
					for f &^= l; l != 0; l &= l - 1 {
						e.latch(nfa.StateID(base | bits.TrailingZeros64(l)))
					}
				}
				if emit != nil {
					for r := f & repWord[fw.wi]; r != 0; r &= r - 1 {
						reps = append(reps, nfa.StateID(base|bits.TrailingZeros64(r)))
					}
				}
				for ; f != 0; f &= f - 1 {
					q := base | bits.TrailingZeros64(f)
					lo, hi := succOff[q], succOff[q+1]
					trans += int64(hi - lo)
					orSucc(dv, ds, succ[lo:hi], true)
				}
			}
		}
		trans += e.latchTrans
		if emit != nil && len(all.rep())+len(lat.rep())+len(reps) > 0 {
			e.emitMerged(all.rep(), lat.rep(), reps, off+int64(j), emit)
		}
		orSucc(dv, ds, all.succ(), !words)
		orSucc(dv, ds, lat.succ(), !words)
		cnt = e.latchLive
		live = 0
		if words {
			// Drop K (after this step's latching) and A, and count what stays.
			for wi, w := range dv {
				w &^= kW[wi] | aW[wi]
				dv[wi] = w
				cnt += bits.OnesCount64(w)
				live += int((w | -w) >> 63) // 1 when w != 0, without a branch
			}
			summed, listed = false, false
		} else {
			// Drop K and A from the words the step touched and summarise
			// what stays.
			for si, sw := range ds {
				if sw == 0 {
					continue
				}
				for t := sw; t != 0; t &= t - 1 {
					wi := si<<6 | bits.TrailingZeros64(t)
					w := dv[wi] &^ (kW[wi] | aW[wi])
					dv[wi] = w
					if w == 0 {
						sw &^= t & -t
					} else {
						live++
						cnt += bits.OnesCount64(w)
					}
				}
				ds[si] = sw
			}
			listed = true
		}
		dense = 2*live >= W
		j++
		sumFrontier += int64(cnt)
		if cnt > maxFrontier {
			maxFrontier = cnt
		}
		if cnt == 0 {
			// Frontier died mid-batch: return so that the cursor can skip
			// from the exact death position.
			break
		}
	}
	e.trans = trans
	e.fired, e.reps = fired, reps
	e.count, e.live, e.summed, e.listed = cnt, live, summed, listed
	e.lastAll, e.lastLat = all, lat
	e.stale, e.firedStale = true, true
	return j, sumFrontier, maxFrontier
}

// orSucc ORs the states cs into the delta vector dv and, when summary is
// set, their words into its summary ds.
func orSucc(dv, ds []uint64, cs []nfa.StateID, summary bool) {
	if !summary {
		for _, c := range cs {
			dv[c>>6] |= 1 << (uint(c) & 63)
		}
		return
	}
	for _, c := range cs {
		dv[c>>6] |= 1 << (uint(c) & 63)
		ds[c>>12] |= 1 << (uint(c>>6) & 63)
	}
}

// firedWord is one word of the delta states fired on a symbol.
type firedWord struct {
	wi   int32
	bits uint64
}

// emitMerged emits the reports of the states of a, b and c, each
// ascending and the three disjoint, in ascending state order.
func (e *Bit) emitMerged(a, b, c []nfa.StateID, off int64, emit EmitFunc) {
	if len(a)+len(b) == 0 { // the common case: only the delta reports
		for _, q := range c {
			emit(Report{Offset: off, State: q, Code: e.tab.repCode[q]})
		}
		return
	}
	for len(a)+len(b)+len(c) > 0 {
		next := &a
		if len(*next) == 0 || len(b) > 0 && b[0] < (*next)[0] {
			next = &b
		}
		if len(*next) == 0 || len(c) > 0 && c[0] < (*next)[0] {
			next = &c
		}
		q := (*next)[0]
		*next = (*next)[1:]
		emit(Report{Offset: off, State: q, Code: e.tab.repCode[q]})
	}
}

// background returns the two halves of sym's background under the
// engine's current baseline and latch: the automaton's all-input half
// while the baseline is on, and the latch half cached for the latched set.
// inline reports that the latched set has not settled (see bgSettleSteps):
// the latch half is then empty and the step must walk K ∖ C ∖ A itself
// (e.bgCur.words lists its words).
func (e *Bit) background(sym byte) (all, lat *bgEntry, inline bool) {
	all, lat = &noBackground, &noBackground
	if e.baseline {
		if all = e.tab.bg[sym].Load(); all == nil {
			all = e.tab.background(sym)
		}
	}
	if e.latchTrans == 0 {
		return all, lat, false
	}
	s := e.bgCur
	if s == nil {
		s = e.slot()
		e.bgCur = s
	}
	if s.steps < bgSettleSteps {
		s.steps++
		return all, lat, true
	}
	if i := s.ent[sym]; i != 0 {
		return all, &s.ents[i-1], false
	}
	var ent bgEntry
	ent, s.ids = e.tab.appendBackground(s.ids, e.tab.Match(sym).Words(), e.latchNx.Words(), e.latched.Words(), s.words)
	s.ents = append(s.ents, ent)
	s.ent[sym] = int32(len(s.ents))
	return all, &s.ents[len(s.ents)-1], false
}

// slot returns the cache slot of the current latched set. On a miss it
// claims one — a slot whose set never settled if there is one, so that the
// passing sets of a latch still forming do not evict the settled ones, and
// round-robin among the settled ones otherwise — and empties it.
func (e *Bit) slot() *bgSlot {
	if e.bg == nil {
		e.bg = new(bgCache)
	}
	c, cw := e.bg, e.latched.Words()
	var s *bgSlot
	for i := range c.slots {
		if t := &c.slots[i]; t.fp == e.latchFP && slices.Equal(t.latched, cw) {
			return t
		} else if s == nil && t.steps < bgSettleSteps {
			s = t
		}
	}
	if s == nil {
		s = &c.slots[c.claims%bgSlotCount]
		c.claims++
	}
	s.fp, s.steps = e.latchFP, 0
	s.latched = append(s.latched[:0], cw...)
	kW, aW := e.latchNx.Words(), e.allIn.Words()
	s.words = s.words[:0]
	for wi := range kW {
		if kW[wi]&^cw[wi]&^aW[wi] != 0 {
			s.words = append(s.words, int32(wi))
		}
	}
	clear(s.ent[:])
	s.ents, s.ids = s.ents[:0], s.ids[:0]
	return s
}

// latch adds latchable state q — fired on the current symbol, not latched
// yet — to the latch, walking its edges for the last time: into latchNx
// (K), which stays enabled from then on, so no delta holds them. A latched
// state fires on every symbol and re-enables itself, so its contribution to a step is the constant (K, latchTrans) and latched ⊆
// enabled holds whatever runs in between — scalar Steps, scored steps,
// baseline toggles — until a Reset replaces the frontier and drops the
// latch. This is the AP not re-evaluating the self-loop half of its Active
// State Group (§3.3.2), with the membership found at run time. The latched
// set changes, so the background entries of the old one no longer apply.
func (e *Bit) latch(q nfa.StateID) {
	e.latched.Words()[q>>6] |= 1 << (uint(q) & 63)
	e.latchFP ^= Key(q)
	e.bgCur = nil
	kW, aW := e.latchNx.Words(), e.allIn.Words()
	succ := e.n.Succ(q)
	e.latchTrans += int64(len(succ))
	for _, c := range succ {
		wi, bit := c>>6, uint64(1)<<(uint(c)&63)
		if kW[wi]&bit == 0 {
			kW[wi] |= bit
			if aW[wi]&bit == 0 {
				e.latchLive++
			}
		}
	}
}

// Enabled returns the current enabled vector (excluding all-input states).
// The set is owned by the engine and invalidated by the next Step,
// StepBatch or Reset.
func (e *Bit) Enabled() *bitset.Set { return e.frontier() }

// Fired returns the states that fired on the most recent Step.
func (e *Bit) Fired() *bitset.Set { return e.firedSet() }

// Stats returns the cumulative transition-edge traversals.
func (e *Bit) Stats() Stats { return Stats{Transitions: e.trans} }

// FrontierLen returns the number of enabled states (excluding all-input).
func (e *Bit) FrontierLen() int { return e.count }

// Dead reports whether the frontier is empty.
func (e *Bit) Dead() bool { return e.count == 0 }

// Fingerprint returns the Zobrist fingerprint of the enabled vector,
// identical to the sparse engine's over the same frontier.
func (e *Bit) Fingerprint() uint64 {
	var fp uint64
	e.frontier().ForEach(func(i int) bool {
		fp ^= Key(nfa.StateID(i))
		return true
	})
	return fp
}

// AppendFrontier appends the enabled states to dst in ascending order.
func (e *Bit) AppendFrontier(dst []nfa.StateID) []nfa.StateID {
	e.frontier().ForEach(func(i int) bool {
		dst = append(dst, nfa.StateID(i))
		return true
	})
	return dst
}

// AppendFired appends the states that fired on the most recent Step, in
// ascending order.
func (e *Bit) AppendFired(dst []nfa.StateID) []nfa.StateID {
	e.firedSet().ForEach(func(i int) bool {
		dst = append(dst, nfa.StateID(i))
		return true
	})
	return dst
}

// FrontierSet returns a fresh copy of the enabled vector.
func (e *Bit) FrontierSet() *bitset.Set { return e.frontier().Clone() }

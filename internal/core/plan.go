package core

import (
	"fmt"
	"sort"
	"sync"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
)

// Unit is one enumeration unit after common-parent merging (§3.3.2): the
// child set of one (or several, when child sets coincide) cut-symbol-
// labelled parent state. A unit is entirely contained in one connected
// component. At a segment boundary the unit is true iff its whole seed is
// enabled in the golden run — which the host checks against the previous
// segment's decoded state vector.
type Unit struct {
	Parents []nfa.StateID
	Seed    []nfa.StateID // sorted
	CC      int32
	// seedCheck is Seed minus all-input states: the subset test only needs
	// the states that are not trivially always enabled.
	seedCheck []nfa.StateID
}

// FlowSpec is one packed flow: at most one unit per connected component
// (§3.3.1, Figure 4), so per-CC masking attributes every report of the flow
// to exactly one unit.
type FlowSpec struct {
	Units []int // indices into SymbolPlan.Units
	// Seed is the flow's start context: the union of its units' seeds,
	// sorted, without the all-input states (implicit in every flow's
	// vector). fp is its Zobrist fingerprint. Both are functions of the
	// plan, so seeding a flow at run time is one SVC allocation.
	Seed []nfa.StateID
	fp   uint64
}

// SymbolPlan is the enumeration plan for one boundary symbol: the flow
// reduction chain of Figure 9.
type SymbolPlan struct {
	Sym              byte
	RangeSize        int // states in Range(σ) = flows before any merging
	FlowsAfterCC     int // after connected-component packing of raw states
	FlowsAfterParent int // after common-parent merging too (= len(Flows))
	Units            []Unit
	Flows            []FlowSpec
}

// Plan is the complete pre-processing result for one (automaton, input,
// config) triple: placement, cut positions, and per-boundary-symbol flow
// plans.
type Plan struct {
	NFA       *nfa.NFA
	Cfg       Config
	Board     ap.Board
	Placement ap.Placement
	Segments  int
	CutSym    byte
	CutFreq   int   // occurrences of CutSym in the input
	Cuts      []int // segment start positions, ascending, len = Segments-1
	// ExactCuts counts boundaries that landed on the chosen symbol;
	// boundaries that had to fall back to another position use that
	// position's actual preceding symbol (correct, but usually with a
	// larger range).
	ExactCuts int

	// symMu guards symPlans: NewPlan prebuilds the plan for every boundary
	// symbol in use, but SymbolPlanFor lazily builds plans for other symbols
	// on demand, and a Plan is driven from many goroutines (the segment
	// drivers).
	symMu    sync.RWMutex
	symPlans map[byte]*SymbolPlan

	// tables is the automaton's symbol→match-vector table, shared by every
	// bit-capable engine this plan creates. Fills are atomic, so the many
	// flow engines of one run (and their goroutines) share it race-free —
	// and so may the caller's other runs over the same automaton, when it
	// hands its own tables in (see RunContext).
	tables *engine.Tables
}

// newEngine creates one execution engine of the configured backend kind,
// sharing the plan's match tables. Scored runs remap score-less backends
// (lazy DFA, meta) to the Auto choice and switch score tracking on.
func (p *Plan) newEngine() engine.Engine {
	kind := p.Cfg.Engine
	if p.Cfg.Scored {
		kind = engine.ScoringKind(kind)
	}
	e := engine.New(kind, p.NFA, p.tables)
	if p.Cfg.Scored {
		engine.SetScoring(e, true)
	}
	return e
}

// NewPlan runs the pre-processing pipeline of §3.5: choose the cut symbol
// by profiling the input (unless forced), place the automaton, derive the
// number of segments from the board, compute cut positions, and build the
// flow plan for every boundary symbol in use. The plan's engines fill
// private match tables.
func NewPlan(n *nfa.NFA, input []byte, cfg Config) (*Plan, error) {
	return newPlan(n, input, cfg, nil)
}

// newPlan is NewPlan over the caller's match tables for n (nil = private).
func newPlan(n *nfa.NFA, input []byte, cfg Config, tab *engine.Tables) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.fire(faultinject.PlanBuild, -1, -1); err != nil {
		return nil, fmt.Errorf("core: plan build: %w", err)
	}
	if len(input) == 0 {
		return nil, fmt.Errorf("core: empty input")
	}
	board, err := ap.NewBoard(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	var placement ap.Placement
	if cfg.HalfCoresOverride > 0 {
		placement = ap.Placement{
			States:    n.Len(),
			HalfCores: cfg.HalfCoresOverride,
			Devices:   (cfg.HalfCoresOverride + ap.HalfCoresPerDev - 1) / ap.HalfCoresPerDev,
		}
	} else {
		placement, err = ap.Place(n.Len())
		if err != nil {
			return nil, err
		}
	}
	segments := board.Segments(placement)
	if segments < 1 {
		return nil, fmt.Errorf("core: automaton (%d half-cores) does not fit a %d-rank board",
			placement.HalfCores, cfg.Ranks)
	}
	if cfg.MaxSegments > 0 && segments > cfg.MaxSegments {
		segments = cfg.MaxSegments
	}
	// Don't create segments shorter than one TDM quantum.
	if maxSeg := len(input) / cfg.TDMQuantum; segments > maxSeg {
		segments = maxSeg
	}
	if segments < 1 {
		segments = 1
	}
	if tab == nil {
		tab = engine.NewTables(n)
	}

	p := &Plan{
		NFA:       n,
		Cfg:       cfg,
		Board:     board,
		Placement: placement,
		Segments:  segments,
		symPlans:  make(map[byte]*SymbolPlan),
		tables:    tab,
	}
	freq := profile(input)
	if cfg.CutSymbol >= 0 {
		p.CutSym = byte(cfg.CutSymbol)
	} else {
		p.CutSym = chooseCutSymbol(n, freq, segments)
	}
	p.CutFreq = freq[p.CutSym]
	p.Cuts, p.ExactCuts = cutPositions(input, p.CutSym, segments)
	p.Segments = len(p.Cuts) + 1
	// Build symbol plans for every boundary symbol actually used.
	for _, c := range p.Cuts {
		sym := input[c-1]
		if _, ok := p.symPlans[sym]; !ok {
			p.symPlans[sym] = buildSymbolPlan(n, sym, cfg)
		}
	}
	if _, ok := p.symPlans[p.CutSym]; !ok {
		p.symPlans[p.CutSym] = buildSymbolPlan(n, p.CutSym, cfg)
	}
	return p, nil
}

// SymbolPlanFor returns the flow plan for one boundary symbol, building and
// caching it on first use. Safe for concurrent callers.
func (p *Plan) SymbolPlanFor(sym byte) *SymbolPlan {
	p.symMu.RLock()
	sp, ok := p.symPlans[sym]
	p.symMu.RUnlock()
	if ok {
		return sp
	}
	p.symMu.Lock()
	defer p.symMu.Unlock()
	if sp, ok = p.symPlans[sym]; !ok {
		sp = buildSymbolPlan(p.NFA, sym, p.Cfg)
		p.symPlans[sym] = sp
	}
	return sp
}

// MaxFlows returns the largest flow count across boundary symbols in use
// (+1 for the ASG flow), the figure checked against SVC capacity.
func (p *Plan) MaxFlows() int {
	p.symMu.RLock()
	defer p.symMu.RUnlock()
	m := 0
	for _, sp := range p.symPlans {
		if len(sp.Flows) > m {
			m = len(sp.Flows)
		}
	}
	return m + 1
}

// CheckCapacity verifies the plan fits the State Vector Cache (§5.1: the
// current AP supports 512 active flows per device; flow reduction must
// bring plans under this limit).
func (p *Plan) CheckCapacity() error {
	return ap.CheckFlowCapacity(p.Placement, p.MaxFlows())
}

// profile counts symbol occurrences.
func profile(input []byte) [256]int {
	var freq [256]int
	for _, s := range input {
		freq[s]++
	}
	return freq
}

// chooseCutSymbol picks a frequently occurring symbol with a small range
// (§3.1): among symbols frequent enough to place every boundary within a
// small window, it minimises the range size; ties go to the more frequent
// symbol. Offline range profiling is cheap (one pass per symbol present).
func chooseCutSymbol(n *nfa.NFA, freq [256]int, segments int) byte {
	need := 2 * (segments - 1)
	if need < 4 {
		need = 4
	}
	best, bestRange, bestFreq := -1, 0, 0
	for s := 0; s < 256; s++ {
		if freq[s] < need {
			continue
		}
		r := n.RangeSize(byte(s))
		if best == -1 || r < bestRange || (r == bestRange && freq[s] > bestFreq) {
			best, bestRange, bestFreq = s, r, freq[s]
		}
	}
	if best == -1 {
		// Input too small or skewed: fall back to the most frequent symbol.
		for s := 0; s < 256; s++ {
			if freq[s] > bestFreq {
				best, bestFreq = s, freq[s]
			}
		}
	}
	return byte(best)
}

// cutPositions places segment boundaries at occurrences of sym nearest to
// the ideal equal-division points. A boundary with no occurrence of sym
// within ±len/(4·segments) falls back to the ideal point (its actual
// preceding symbol then defines that boundary's enumeration plan).
// Returned positions are strictly increasing segment start offsets.
func cutPositions(input []byte, sym byte, segments int) (cuts []int, exact int) {
	if segments <= 1 {
		return nil, 0
	}
	n := len(input)
	window := n / (4 * segments)
	prev := 0
	for i := 1; i < segments; i++ {
		ideal := i * n / segments
		pos := -1
		// Scan outward from the ideal point for input[pos-1] == sym.
		for d := 0; d <= window; d++ {
			if q := ideal + d; q > prev+1 && q < n && input[q-1] == sym {
				pos = q
				break
			}
			if q := ideal - d; d > 0 && q > prev+1 && q < n && input[q-1] == sym {
				pos = q
				break
			}
		}
		if pos == -1 {
			pos = ideal
			if pos <= prev+1 || pos >= n {
				continue // segment would be empty; skip this boundary
			}
		} else {
			exact++
		}
		cuts = append(cuts, pos)
		prev = pos
	}
	return cuts, exact
}

// buildSymbolPlan computes enumeration units and packs them into flows for
// one boundary symbol, honouring the ablation switches.
func buildSymbolPlan(n *nfa.NFA, sym byte, cfg Config) *SymbolPlan {
	sp := &SymbolPlan{Sym: sym}
	rangeStates := n.Range(sym)
	sp.RangeSize = len(rangeStates)

	// Figure 9's "after CC" stage: raw range states packed one per CC.
	perCCStates := map[int32]int{}
	for _, q := range rangeStates {
		perCCStates[n.CCOf(q)]++
	}
	for _, c := range perCCStates {
		if c > sp.FlowsAfterCC {
			sp.FlowsAfterCC = c
		}
	}

	// Enumeration units: common-parent groups, or raw states when ablated.
	if cfg.DisableParentMerge {
		for _, q := range rangeStates {
			u := Unit{Seed: []nfa.StateID{q}, CC: n.CCOf(q)}
			if !isAllInput(n, q) {
				u.seedCheck = u.Seed
			}
			sp.Units = append(sp.Units, u)
		}
	} else {
		for _, g := range n.ParentGroups(sym) {
			u := Unit{Parents: g.Parents, Seed: g.Seed, CC: g.CC}
			for _, q := range g.Seed {
				if !isAllInput(n, q) {
					u.seedCheck = append(u.seedCheck, q)
				}
			}
			sp.Units = append(sp.Units, u)
		}
	}

	// Pack units into flows: one unit per CC per flow (Figure 4). Within a
	// component, units whose seeds contain self-looping states (unbounded
	// gaps, .* repetitions — activity that can persist indefinitely) are
	// packed first, concentrating long-lived enumeration into the lowest
	// flow columns so the remaining flows die and free their TDM slots
	// quickly. This packing-order heuristic is ours, not the paper's.
	if cfg.DisableCCMerge {
		for i, u := range sp.Units {
			sp.Flows = append(sp.Flows, FlowSpec{Units: []int{i}, Seed: u.Seed})
		}
	} else {
		persistent := func(u Unit) bool {
			for _, q := range u.Seed {
				for _, c := range n.Succ(q) {
					if c == q {
						return true
					}
				}
			}
			return false
		}
		byCC := map[int32][]int{}
		var ccs []int32
		for i, u := range sp.Units {
			if _, ok := byCC[u.CC]; !ok {
				ccs = append(ccs, u.CC)
			}
			byCC[u.CC] = append(byCC[u.CC], i)
		}
		for _, us := range byCC {
			sort.SliceStable(us, func(a, b int) bool {
				pa, pb := persistent(sp.Units[us[a]]), persistent(sp.Units[us[b]])
				return pa && !pb
			})
		}
		// Deterministic packing: components with the most units first.
		sort.Slice(ccs, func(a, b int) bool {
			if len(byCC[ccs[a]]) != len(byCC[ccs[b]]) {
				return len(byCC[ccs[a]]) > len(byCC[ccs[b]])
			}
			return ccs[a] < ccs[b]
		})
		depth := 0
		if len(ccs) > 0 {
			depth = len(byCC[ccs[0]])
		}
		for col := 0; col < depth; col++ {
			var f FlowSpec
			for _, cc := range ccs {
				us := byCC[cc]
				if col < len(us) {
					f.Units = append(f.Units, us[col])
					f.Seed = append(f.Seed, sp.Units[us[col]].Seed...)
				}
			}
			sp.Flows = append(sp.Flows, f)
		}
	}
	for i := range sp.Flows {
		f := &sp.Flows[i]
		f.Seed = dropAllInput(sortedIDs(f.Seed), n)
		f.fp = fingerprintOf(f.Seed, n)
	}
	sp.FlowsAfterParent = len(sp.Flows)
	return sp
}

// isAllInput reports whether q is an always-enabled state.
func isAllInput(n *nfa.NFA, q nfa.StateID) bool {
	return n.State(q).Flags&nfa.AllInput != 0
}

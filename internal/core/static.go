package core

import (
	"sync/atomic"

	"pap/internal/engine"
	"pap/internal/nfa"
)

// Static is the input-independent half of pre-processing for one automaton
// (§3.5, Figure 7): the match tables every engine of a run shares and the
// enumeration plan of every boundary symbol (range sizes are cached on the
// NFA itself). Only the cut positions depend on the input, so a caller that
// matches one automaton many times keeps one Static and hands it to every
// RunContext; each run then pays for its own segments and flows only.
//
// Symbol plans are built on first use, lock-free, and read-only once built:
// concurrent first uses may build duplicates, one of which is published and
// seen by every caller thereafter (the builds are deterministic, so which
// one does not matter). SymbolPlans stay read-only after publication
// because the SVC copies a flow's seed on allocation. Safe for concurrent
// use.
type Static struct {
	nfa *nfa.NFA
	tab *engine.Tables

	// startSeed is the golden flow's start context: the start states minus
	// the all-input ones, sorted, with its fingerprint.
	startSeed []nfa.StateID
	startFP   uint64

	// plans holds the SymbolPlans, one table per value of the Config
	// fields buildSymbolPlan reads (symbolPlanKey), allocated on the first
	// plan under that value.
	plans [4]atomic.Pointer[symbolPlans]
}

type symbolPlans [256]atomic.Pointer[SymbolPlan]

// NewStatic returns the shared pre-processing state of n over the caller's
// match tables for n (nil = tables of its own).
func NewStatic(n *nfa.NFA, tab *engine.Tables) *Static {
	if tab == nil {
		tab = engine.NewTables(n)
	}
	s := &Static{nfa: n, tab: tab}
	s.startSeed = dropAllInput(sortedIDs(n.StartStates()), n)
	s.startFP = fingerprintOf(s.startSeed, n)
	return s
}

// symbolPlanKey indexes Static.plans by the Config fields buildSymbolPlan
// reads. A field it starts reading must join the key
// (TestSymbolPlanCacheKeyComplete fails until it does).
func symbolPlanKey(cfg *Config) int {
	k := 0
	if cfg.DisableParentMerge {
		k |= 1
	}
	if cfg.DisableCCMerge {
		k |= 2
	}
	return k
}

// symbolPlan returns the enumeration plan of boundary symbol sym under cfg,
// building it on first use.
func (s *Static) symbolPlan(sym byte, cfg *Config) *SymbolPlan {
	tab := &s.plans[symbolPlanKey(cfg)]
	plans := tab.Load()
	if plans == nil {
		tab.CompareAndSwap(nil, new(symbolPlans)) // a lost race keeps the winner's
		plans = tab.Load()
	}
	slot := &plans[sym]
	if sp := slot.Load(); sp != nil {
		return sp
	}
	sp := buildSymbolPlan(s.nfa, sym, *cfg)
	if slot.CompareAndSwap(nil, sp) {
		return sp
	}
	return slot.Load()
}

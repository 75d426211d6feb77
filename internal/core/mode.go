package core

import (
	"fmt"
	"slices"

	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
)

// Mode selects the parallel execution strategy. The zero value is the
// paper's flow enumeration; ModeSFA replaces enumeration with SFA-style
// function composition (Sin'ya et al.: run each segment once per distinct
// entry frontier, compose the resulting entry→exit mappings left-to-right).
type Mode uint8

const (
	// ModeFlows is the paper's strategy: enumerate one flow per packed
	// enumeration unit, kill false flows via deactivation, convergence and
	// Flow Invalidation Vectors, and filter reports by decoded unit truth.
	ModeFlows Mode = iota
	// ModeSFA runs each segment once per frontier-equivalence class (units
	// whose non-baseline seeds coincide), records each class's entry→exit
	// state mapping, and composes mappings at segment boundaries after the
	// round loops finish — no FIV traffic, truth falls out of composition.
	ModeSFA

	maxMode = ModeSFA
)

var modeNames = [...]string{"flows", "sfa"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// execMode is the execution-strategy seam of the round loop: how a
// segment's flows are seeded before execution, and what (if anything) runs
// after every segment's round loop has finished. The TDM loop itself
// (runSegmentRounds), deactivation, convergence, the SVC, and both
// schedulers are shared by all modes; a mode only decides what the flows
// *mean* and how boundary truth is established.
type execMode interface {
	// usesFIV reports whether the mode consumes Flow Invalidation Vectors
	// in-loop. When false, neither scheduler ever gates on a predecessor's
	// truth cell and FIVApplied stays false on every segment.
	usesFIV() bool
	// seedSegment populates the enumeration flows (seg.flows[1:]) of one
	// segment with Index > 0; the ASG flow and the golden flow of segment 0
	// are seeded by the mode-independent buildSegments shell. It runs before
	// the golden execution has necessarily started, so it reads no boundary.
	seedSegment(p *Plan, seg *segmentResult)
	// finalize runs once after every segment's round loop — and the golden
	// run — has joined and before report composition, on the caller's
	// goroutine: every segment's unit truth is established when it returns.
	// Errors (and recovered panics) land on the offending segment's err
	// field.
	finalize(p *Plan, segs []*segmentResult, g *goldenRun)
}

// execMode returns the strategy implementation for the configured Mode.
func (p *Plan) execMode() execMode {
	if p.Cfg.Mode == ModeSFA {
		return sfaMode{}
	}
	return flowMode{}
}

// fivEnabled reports whether this run sends Flow Invalidation Vectors:
// the mode must use them and the ablation switch must not disable them.
func (p *Plan) fivEnabled() bool {
	return p.execMode().usesFIV() && !p.Cfg.DisableFIV
}

// flowMode is the paper's enumeration strategy (§3.3): one flow per packed
// FlowSpec, false flows killed in-loop by the FIV, truth decoded from the
// golden boundary where it is first needed — an FIV that finds a flow to
// judge, or else finalize.
type flowMode struct{}

func (flowMode) usesFIV() bool { return true }

func (flowMode) seedSegment(p *Plan, seg *segmentResult) {
	sp := p.SymbolPlanFor(seg.Sym)
	for fi, spec := range sp.Flows {
		f := newFlowRun(fi+1, false)
		f.svcID = seg.svc.AllocOverflow(spec.Seed, spec.fp)
		for _, ui := range spec.Units {
			f.attrib = append(f.attrib, attribEntry{
				CC:   sp.Units[ui].CC,
				Unit: ui,
				From: int64(seg.Start),
			})
		}
		seg.flows = append(seg.flows, f)
	}
}

// finalize decodes the truth of every segment whose enumeration flows no
// FIV judged, for compose to filter their reports by.
func (flowMode) finalize(p *Plan, segs []*segmentResult, g *goldenRun) {
	for _, seg := range segs[1:] {
		if len(seg.flows) > 1 && !p.decodeTruth(seg, g) {
			return
		}
	}
}

// decodeTruth evaluates the segment's units against the golden boundary at
// its start (unitTruth), once. It returns false when that boundary never
// arrives (segmentResult.entry).
func (p *Plan) decodeTruth(seg *segmentResult, g *goldenRun) bool {
	if seg.unitTrue != nil {
		return true
	}
	b, ok := seg.entry(g)
	if ok {
		seg.unitTrue = unitTruth(p.SymbolPlanFor(seg.Sym), b)
	}
	return ok
}

// sfaMode is the SFA composition strategy. Seeding groups the segment's
// enumeration units into frontier-equivalence classes — units whose
// non-baseline seeds are identical start the segment in the same frontier,
// so one run covers them all — and runs exactly one flow per class over
// the unchanged TDM machinery. Each class flow's saved SVC context at the
// segment's end IS the entry→exit state mapping restricted to that entry
// class (NFA frontier evolution is additive, so per-class images suffice).
// finalize then composes left-to-right: segment j's true exit union is the
// entry set of segment j+1, unit truth is a subset test against it, and
// the Zobrist fingerprints make the boundary cross-checks against the
// golden run O(1) hash compares (full compares only on hash hits, with
// verified collisions counted).
type sfaMode struct{}

func (sfaMode) usesFIV() bool { return false }

func (sfaMode) seedSegment(p *Plan, seg *segmentResult) {
	sp := p.SymbolPlanFor(seg.Sym)
	// Truth is unknown until finalize composes the boundary mappings.
	seg.unitTrue = make([]bool, len(sp.Units))

	// Frontier-equivalence classes: units keyed by the fingerprint of their
	// non-baseline seed, verified on hash match (a colliding pair stays in
	// separate classes and is counted). Units with an empty non-baseline
	// seed are never true (unitTruth's len(seedCheck) > 0 rule) and their
	// runs could never contribute a true exit, so they get no flow.
	type entryClass struct {
		fp    uint64
		seed  []nfa.StateID // borrowed from Unit.seedCheck (sorted)
		units []int
	}
	var classes []entryClass
	byFP := map[uint64][]int{}
	for ui, u := range sp.Units {
		if len(u.seedCheck) == 0 {
			continue
		}
		fp := fingerprintOf(u.seedCheck, p.NFA)
		found := -1
		for _, ci := range byFP[fp] {
			if equalContexts(classes[ci].seed, u.seedCheck) {
				found = ci
				break
			}
			seg.FPCollisions++ // verified: same hash, different seeds
		}
		if found >= 0 {
			classes[found].units = append(classes[found].units, ui)
			continue
		}
		byFP[fp] = append(byFP[fp], len(classes))
		classes = append(classes, entryClass{fp: fp, seed: u.seedCheck, units: []int{ui}})
	}

	for ci, c := range classes {
		f := newFlowRun(ci+1, false)
		f.classUnit = c.units[0]
		// The SVC copies the seed on allocation: the plan's unit seeds are
		// shared across executions of the same Plan.
		f.svcID = seg.svc.AllocOverflow(c.seed, c.fp)
		for _, ui := range c.units {
			f.attrib = append(f.attrib, attribEntry{
				CC:   sp.Units[ui].CC,
				Unit: ui,
				From: int64(seg.Start),
			})
		}
		seg.flows = append(seg.flows, f)
	}
	seg.SFAMappings = len(classes)
}

// finalize composes the per-segment entry→exit mappings left-to-right.
// Segment j's exit under the true entry set is the union of its ASG/golden
// exit with the exits of its true entry classes; unit truth of segment j+1
// is the whole-seed subset test against that union — the same criterion
// unitTruth applies to the golden boundary, so composition reproduces flow
// mode's truth (and therefore its reports) exactly. Each boundary is
// cross-checked against the golden run by fingerprint.
func (sfaMode) finalize(p *Plan, segs []*segmentResult, g *goldenRun) {
	entry := map[nfa.StateID]struct{}{}
	var entryIDs []nfa.StateID // sorted materialisation for the cross-check
	for j := 1; j < len(segs); j++ {
		prev, seg := segs[j-1], segs[j]
		p.guardSegment(seg, func() {
			if err := p.Cfg.fire(faultinject.SFACompose, seg.Index, -1); err != nil {
				seg.err = err
				return
			}

			// Compose: union the predecessor's surviving exit mappings.
			clear(entry)
			sfaExit(prev, entry)
			seg.ComposeOps += int64(len(entry))

			// Truth of this segment's units at the composed boundary.
			sp := p.SymbolPlanFor(seg.Sym)
			for ui, u := range sp.Units {
				ok := len(u.seedCheck) > 0
				for _, q := range u.seedCheck {
					seg.ComposeOps++
					if _, in := entry[q]; !in {
						ok = false
						break
					}
				}
				seg.unitTrue[ui] = ok
			}

			// Fingerprint cross-check against the golden boundary: equal
			// hashes are trusted unless the full compare disagrees (a
			// verified collision); a hash mismatch means the composed
			// frontier diverged, which compose()'s report comparison
			// (Result.Correct) surfaces.
			entryIDs = entryIDs[:0]
			for q := range entry {
				entryIDs = append(entryIDs, q)
			}
			slices.Sort(entryIDs)
			golden, ok := seg.entry(g)
			if !ok {
				return
			}
			if want := golden.Enabled; fingerprintOf(entryIDs, p.NFA) == fingerprintOf(want, p.NFA) &&
				!equalContexts(entryIDs, want) {
				seg.FPCollisions++
			}
		})
		if seg.err != nil {
			return
		}
	}
}

// seedScores gives every enumeration flow of a scored run its entry scores
// from the golden boundary at the segment's start, before the segment's
// first round. This is the one place a segment needs the golden run before
// it can step at all, so a scored run pipelines behind the golden run. It
// returns false when that boundary never arrives (segmentResult.entry).
func (p *Plan) seedScores(seg *segmentResult, g *goldenRun) bool {
	if !p.Cfg.Scored || len(seg.flows) == 1 {
		return true
	}
	b, ok := seg.entry(g)
	if !ok {
		return false
	}
	for _, f := range seg.flows[1:] {
		seed, _ := seg.svc.Load(f.svcID)
		f.scoreBuf = entryScores(b, seed)
	}
	return true
}

// entryScores returns the entry-score vector for a flow seed (sorted, no
// all-input states), drawn from the golden boundary: seed states the golden
// run had enabled at the cut inherit their exact best-path scores, so every
// boundary-crossing path resumes with the true sequential score. Seed states
// the golden run did NOT have enabled score 0 — they only exist in false
// flows (or false units), whose reports the truth filter drops, so the value
// is observably irrelevant; 0 keeps the vector deterministic. Both slices
// are sorted, so this is one merge walk.
func entryScores(b engine.Boundary, seed []nfa.StateID) []int64 {
	scores := make([]int64, len(seed))
	j := 0
	for i, q := range seed {
		for j < len(b.Enabled) && b.Enabled[j] < q {
			j++
		}
		if j < len(b.Enabled) && b.Enabled[j] == q && b.Scores != nil {
			scores[i] = b.Scores[j]
		}
	}
	return scores
}

// sfaExit adds one finished segment's true exit states to dst: the
// ASG/golden flow's exit plus each class flow's exit when its class is
// true. Flows absorbed by convergence contribute their survivor's exit
// (equal vectors evolve identically); flows whose SVC entry was freed by
// deactivation contribute nothing — a zero-mask kill exits empty and an
// absorption kill exits inside the ASG exit, so the union is unchanged.
func sfaExit(seg *segmentResult, dst map[nfa.StateID]struct{}) {
	base := seg.flows[0]
	if seg.svc.Valid(base.svcID) {
		ctx, _ := seg.svc.Load(base.svcID)
		for _, q := range ctx {
			dst[q] = struct{}{}
		}
	}
	for _, f := range seg.flows[1:] {
		if !seg.unitTrue[f.classUnit] {
			continue
		}
		g := f
		for g.mergedInto != nil {
			g = g.mergedInto
		}
		if !seg.svc.Valid(g.svcID) {
			continue
		}
		ctx, _ := seg.svc.Load(g.svcID)
		for _, q := range ctx {
			dst[q] = struct{}{}
		}
	}
}

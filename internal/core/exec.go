package core

import (
	"context"
	"slices"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
)

// attribEntry maps reports of a flow in one connected component to the
// enumeration unit that caused them, from input offset From onward. Entries
// with Unit == -1 mark always-true activity (the golden flow of segment 1
// and the ASG flow). Convergence merges append the absorbed flow's entries
// to the survivor with From set to the merge offset (§3.3.3).
type attribEntry struct {
	CC   int32
	Unit int // index into the segment's SymbolPlan.Units; -1 = always true
	From int64
}

// flowRun is the runtime state of one flow of one segment.
type flowRun struct {
	id      int
	asg     bool // flow 0: ASG flow (or the golden flow of segment 1)
	alive   bool
	merged  bool // absorbed by convergence (results continue in survivor)
	svcID   ap.FlowID
	attrib  []attribEntry
	reports []engine.Report
	symbols int64 // symbols actually processed (early kills process fewer)
	trans   int64
	skipped int64 // symbols of inert round ends after the frontier died (subset of symbols)
	// baseSkipped counts symbols covered by the exact baseline-skip scan
	// (ASG flow, dead frontier, start-class scanner). Like skipped it is a
	// subset of symbols: every covered symbol still charges its modelled
	// round.
	baseSkipped int64

	// classUnit is the index of one unit of this flow's frontier-
	// equivalence class (SFA mode only; every unit of the class shares one
	// truth value, so one index suffices for the exit-composition lookup).
	classUnit int
	// mergedInto records the convergence survivor that absorbed this flow:
	// equal state vectors evolve identically, so the survivor's exit
	// context stands in for this flow's (SFA composition follows the
	// chain). nil for live, deactivated, and FIV-killed flows.
	mergedInto *flowRun
	// ctxBuf is the flow's reusable frontier scratch: the per-round SVC
	// save and the round-0 probe compares fill it in place instead of
	// allocating a fresh sorted slice per round (the SVC copies on Save).
	ctxBuf []nfa.StateID
	// scoreBuf (scored runs only) carries the flow's best-path scores across
	// TDM rounds, parallel to the sorted context the flow last saved to the
	// SVC: a flow switched off the segment's engine leaves its scores here,
	// exactly like the context itself. Seeded by seedScores with the golden
	// boundary scores; nil for the ASG flow (baseline paths start at score 0
	// by definition).
	scoreBuf []int64
	// emit appends to reports; built once per flow, not once per flow-round.
	emit engine.EmitFunc
}

// newFlowRun returns an alive flow with its report sink in place.
func newFlowRun(id int, asg bool) *flowRun {
	f := &flowRun{id: id, asg: asg, alive: true}
	f.emit = func(r engine.Report) { f.reports = append(f.reports, r) }
	return f
}

// segmentResult aggregates one segment's functional and timing outcomes.
type segmentResult struct {
	Index      int
	Start, End int
	Sym        byte // boundary symbol that defined this segment's plan
	InitFlows  int  // flows at segment start (incl. ASG/golden)

	Cycles       ap.Cycles // busy time on this segment's half-cores
	SwitchCycles ap.Cycles
	HostCycles   ap.Cycles // Tcpu: decode + FIV construction (Figure 11)
	KnownAt      ap.Cycles // wall time when this segment's truth is known

	Rounds        int
	FlowRounds    int64 // Σ alive flows over rounds (avg active = /Rounds)
	Deactivations int
	Convergences  int
	FIVKills      int
	FIVApplied    bool
	ConvCompares  int64 // comparator accesses (overlapped, §3.3.3)
	EventsEmitted int64 // all output-buffer entries, true and false paths
	Transitions   int64 // successor traversals (energy proxy, §5.3)
	PrefilterSkip int64 // input bytes of dead enumeration flows' inert round
	// ends (simulator fast path; the modelled cycles still charge them)
	BaselineSkip int64 // input bytes covered by the exact baseline-skip
	// scan (ASG-only frontier, start-class scanner); same charging rule

	SFAMappings  int   // SFA mode: frontier-equivalence classes run
	ComposeOps   int64 // SFA mode: boundary-composition set operations
	FPCollisions int64 // verified fingerprint collisions (hash hit, sets differ)

	flows []*flowRun
	svc   *ap.SVC // flow context store (one SVC per replica)
	// resident is the flow whose context is live on the segment's engine:
	// the flow that ran last. It resumes without a load from the SVC.
	resident *flowRun
	// unitTrue is the truth of this segment's units at its start boundary;
	// nil in flow mode until decodeTruth first needs it.
	unitTrue []bool

	convScratch []convEntry // reusable convergence sort buffer (no per-check allocs)

	// err and pos record an aborted segment: the cancellation, injected
	// fault, or recovered panic that stopped it, and the input offset its
	// round loop had reached. A segment with err != nil never contributes
	// reports — the whole run returns *Aborted.
	err error
	pos int
}

// progress returns the next unprocessed input offset: Start for a segment
// that never ran a round, End for one whose round loop finished.
func (seg *segmentResult) progress() int {
	if seg.pos < seg.Start {
		return seg.Start
	}
	return seg.pos
}

// deactivationProbe is the spacing of the extra early deactivation checks
// the paper inserts before the first TDM step completes (§3.3.4: "many
// flows get deactivated within processing few symbols").
const deactivationProbe = 16

// snapshot is one recorded ASG frontier during round 0.
type snapshot struct {
	after    int // symbols into the round
	fp       uint64
	frontier []nfa.StateID // sorted
}

// segScheduler is the per-segment policy hook of the TDM round loop: what
// bookkeeping runs after every round, and how the "has the Flow
// Invalidation Vector arrived by now?" question is answered at each round
// boundary. The serial scheduler knows fivAt before the segment starts; the
// cross-segment parallel scheduler (sched.go) answers from the
// predecessor's live truth cell, blocking only while the answer is genuinely
// undetermined.
type segScheduler interface {
	// tick runs after each trip's cycle accounting — a round, or a stretch
	// of sole-flow rounds — with seg.Cycles at its end time.
	tick(seg *segmentResult)
	// fivArrived reports whether the FIV has arrived by seg.Cycles. last
	// marks the check after the final round; implementations may defer the
	// decision to finishFIV (sched.go), which yields an identical outcome
	// because a kill at the end of the final round has no further in-loop
	// effect.
	fivArrived(seg *segmentResult, last bool) bool
}

// serialFIV is the serial scheduler's policy: the FIV arrival time is known
// up front from the already-finished predecessor.
type serialFIV struct{ fivAt ap.Cycles }

func (serialFIV) tick(*segmentResult) {}
func (s serialFIV) fivArrived(seg *segmentResult, _ bool) bool {
	return seg.Cycles >= s.fivAt
}

// applyFIV kills every alive enumeration flow whose attribution holds no
// true unit (§3.4): the Flow Invalidation Vector has arrived. The vector's
// content is the truth at the segment's start boundary, decoded from the
// golden run the first time a flow is judged by it (decodeTruth); a golden
// run that stopped short of that cut leaves its error on the segment.
func (p *Plan) applyFIV(seg *segmentResult, g *goldenRun) {
	seg.FIVApplied = true
	for _, f := range seg.flows[1:] {
		if !f.alive {
			continue
		}
		if !p.decodeTruth(seg, g) {
			return
		}
		if !anyAttribTrue(f.attrib, seg.unitTrue) {
			f.alive = false
			seg.FIVKills++
		}
	}
}

// runSegmentRounds is the TDM round loop, the one both schedulers, both
// modes and fault-injected runs go through. It runs every round of every
// flow of the segment on e, the engine the segment's driver holds for the
// segment's life — the paper's one half-core per segment (§3.2). All
// modelled quantities it computes depend only on (plan, segment, input) —
// never on which engine, how many other drivers, or how far the golden run
// has got — which is what makes the serial and parallel schedulers
// bit-identical in ap.Cycles metrics.
//
// A sole live flow is not switched. Only flow 0 can be the last one alive
// (it never dies, and dead flows never revive), so from then on no sweep,
// convergence check or kill can change anything at a round boundary, and
// the loop takes a stretch of whole rounds per trip — Rounds, FlowRounds,
// Cycles and the round counter advance by the stretch — capped at the
// distance at which the sequential run loop polls its context, so that a
// segment is cancelled as promptly as a sequential match. A run with a
// fault hook takes one round per trip, which keeps RoundStep coordinates
// exact and is the reference the stretch is tested against.
//
// Cancellation (and fault injection) is checked once per trip, at the flow
// context-switch boundary the paper's §3.2 TDM model already pays for — the
// per-symbol inner loop stays check-free. On cancellation the segment
// records ctx's error and its progress and returns.
func (p *Plan) runSegmentRounds(ctx context.Context, seg *segmentResult, input []byte, e engine.Engine, g *goldenRun, sched segScheduler) {
	cfg := &p.Cfg
	asgFlow := seg.flows[0]
	if !p.seedScores(seg, g) {
		return
	}
	stretch := max(1, engine.CtxCheckEvery/cfg.TDMQuantum) * cfg.TDMQuantum
	// Every flow round advances through one of two cursors over e: skip,
	// which skips dead frontiers under every engine kind (the start-class
	// scan unless DisableBaselineSkip, nil when a saturated class can never
	// skip), and step, which steps every symbol for the probing rounds.
	scan := p.static.tab.BaselineSkip()
	if cfg.DisableBaselineSkip {
		scan = nil
	}
	skip := engine.NewCursor(e, scan, !cfg.DisablePrefilter)
	step := engine.NewCursor(e, nil, false)

	pos := seg.Start
	round := 0
	fivApplied := !p.fivEnabled()
	var live []*flowRun
	for pos < seg.End {
		seg.pos = pos
		if err := cfg.fire(faultinject.RoundStep, seg.Index, round); err != nil {
			seg.err = err
			return
		}
		if err := ctx.Err(); err != nil {
			seg.err = err
			return
		}
		live = live[:0]
		var symsBefore int64
		for _, f := range seg.flows {
			if f.alive {
				live = append(live, f)
				symsBefore += f.symbols
			}
		}
		sole := len(live) == 1
		k := min(cfg.TDMQuantum, seg.End-pos)
		if sole && cfg.Fault == nil {
			k = min(stretch, seg.End-pos)
		}
		rounds := (k + cfg.TDMQuantum - 1) / cfg.TDMQuantum
		seg.Rounds += rounds
		seg.FlowRounds += int64(rounds * len(live))
		if !sole {
			seg.SwitchCycles += ap.Cycles(cfg.SwitchCycles * len(live))
			seg.Cycles += ap.Cycles(cfg.SwitchCycles * len(live))
		}

		// Round 0 of a segment with enumeration flows carries the early
		// deactivation probes: the ASG/golden flow goes first and records
		// the snapshots the other flows are compared against. A sole flow
		// has no one to be compared with, in round 0 or later.
		if round == 0 && !sole {
			asgTrace := p.runFlowRound(ctx, seg, asgFlow, input, &skip, &step, pos, k, true, nil)
			for _, f := range live[1:] {
				p.runFlowRound(ctx, seg, f, input, &skip, &step, pos, k, true, asgTrace)
			}
		} else {
			for _, f := range live {
				p.runFlowRound(ctx, seg, f, input, &skip, &step, pos, k, false, nil)
			}
		}

		pos += k
		// TDM: the half-core processes each alive flow's k symbols in
		// turn, so the round's busy time is the sum of symbols actually
		// processed (early-killed flows stop short).
		var symsAfter int64
		for _, f := range live {
			symsAfter += f.symbols
		}
		seg.Cycles += ap.Cycles(symsAfter - symsBefore)
		sched.tick(seg)

		// Deactivation sweep at the context switch (§3.3.4): a flow whose
		// enumeration activity has died (zero-mask compare on the state
		// vector, always-active states excepted) is unproductive; its
		// continuation is the baseline, which the always-true ASG flow
		// reports. With AbsorbDeactivation, activity absorbed *into* the
		// baseline also kills the flow: its full vector then equals the
		// ASG flow's and the two evolve identically forever.
		if !sole && !cfg.DisableDeactivation {
			asgCtx, asgFP := seg.svc.Load(asgFlow.svcID)
			for _, f := range seg.flows[1:] {
				if !f.alive {
					continue
				}
				ctx, fp := seg.svc.Load(f.svcID)
				dead := len(ctx) == 0
				if !dead && cfg.AbsorbDeactivation {
					// Equal-length subset means equality, which the SVC
					// comparator decides by fingerprint: a hash mismatch
					// skips the sorted walk entirely, a hash hit is
					// verified (collisions counted). Shorter vectors
					// still need the containment walk.
					if len(ctx) == len(asgCtx) {
						if fp == asgFP {
							dead = equalContexts(ctx, asgCtx)
							if !dead {
								seg.FPCollisions++
							}
						}
					} else {
						dead = subsetOf(ctx, asgCtx)
					}
				}
				if dead {
					f.alive = false
					seg.Deactivations++
				}
			}
		}

		// Convergence checks every ConvergenceEvery TDM steps (§3.3.3);
		// compares run on the SVC comparator, overlapped with symbol
		// processing, so they cost no cycles but are counted.
		round += rounds
		if !sole && !cfg.DisableConvergence && round%cfg.ConvergenceEvery == 0 {
			p.convergeFlows(seg, int64(pos))
		}

		// Release the SVC entries of flows that died since the last trip:
		// in this round's probes or sweep, or to the previous trip's FIV.
		for _, f := range seg.flows {
			if !f.alive && seg.svc.Valid(f.svcID) {
				seg.svc.Invalidate(f.svcID)
			}
		}

		// Flow Invalidation Vector: once the previous segment's truth is
		// known (and transferred), false flows are killed (§3.4).
		if !fivApplied && sched.fivArrived(seg, pos >= seg.End) {
			if err := cfg.fire(faultinject.FIVTransfer, seg.Index, round); err != nil {
				seg.err = err
				return
			}
			fivApplied = true
			if p.applyFIV(seg, g); seg.err != nil {
				return
			}
		}
	}
	seg.pos = pos
	// Hardware-faithful totals: on the AP every alive flow re-fires the
	// always-enabled baseline each cycle, so the baseline's transitions and
	// report events are duplicated across flows (the simulator computes
	// them once, in the ASG flow — see engine.SetBaseline). Scale the
	// baseline share by the time-averaged alive-flow count. A degenerate
	// zero-round segment (Start == End) has no baseline duplication; the
	// guard matters because 0/0 is NaN and int64(NaN) is unspecified.
	var enumTrans, enumEvents int64
	for _, f := range seg.flows[1:] {
		enumTrans += f.trans
		enumEvents += int64(len(f.reports))
	}
	for _, f := range seg.flows {
		seg.PrefilterSkip += f.skipped
		seg.BaselineSkip += f.baseSkipped
	}
	dup := 0.0
	if seg.Rounds > 0 {
		dup = float64(seg.FlowRounds) / float64(seg.Rounds)
	}
	seg.Transitions = enumTrans + int64(float64(asgFlow.trans)*dup)
	seg.EventsEmitted = enumEvents + int64(float64(len(asgFlow.reports))*dup)
}

// runFlowRound advances one flow by up to k symbols starting at pos on the
// segment's engine and saves its context back to the State Vector Cache; a
// flow other than the one that ran last is loaded from there first —
// exactly an SVC context switch. Outside a probing round the skip cursor
// takes the flow to the round's end: a dead enumeration flow (baseline off)
// can never revive, so the rest of its round is inert, and a dead baseline
// flow scans to the next start-class byte — both bit-identical to stepping,
// and every covered symbol is still charged to f.symbols, so modelled
// ap.Cycles are unchanged. A probing round (round 0 of a segment with
// enumeration flows) steps every symbol, so that the deactivation probe
// schedule and its Deactivations stay exactly as without skips: it records
// and returns probe snapshots for the ASG flow, and compares any other flow
// against the provided snapshots, killing it at the first probe where it
// has fully converged onto the baseline. Neither cursor polls ctx.
func (p *Plan) runFlowRound(ctx context.Context, seg *segmentResult, f *flowRun, input []byte, skip, step *engine.Cursor,
	pos, k int, probing bool, asgTrace []snapshot) []snapshot {

	e := skip.Engine()
	if seg.resident != f {
		// The ASG/golden flow simulates the shared baseline (all-input
		// states firing every cycle); enumeration flows track only their
		// seed-derived activity — the union of the two is the flow's
		// hardware state vector (see engine.SetBaseline).
		saved, _ := seg.svc.Load(f.svcID)
		skip.SetBaseline(f.asg)
		if p.Cfg.Scored {
			engine.ResetScoredOf(e, saved, f.scoreBuf)
		} else {
			e.Reset(saved)
		}
		seg.resident = f
	}
	t0 := e.Stats().Transitions
	var trace []snapshot
	if !probing {
		skipped, baseSkipped := skip.PrefilterSkipped, skip.BaselineSkipped
		skip.Emit = f.emit
		skip.Feed(input, pos, 0)
		_ = skip.Advance(ctx, pos+k) // a cursor that never polls never fails
		f.symbols += int64(k)
		f.skipped += skip.PrefilterSkipped - skipped
		f.baseSkipped += skip.BaselineSkipped - baseSkipped
	} else {
		isASG := f.asg && f.id == 0
		probe := 0
		step.Emit = f.emit
		step.Feed(input, pos, 0)
		for i := 0; i < k; {
			i = min(k, (i/deactivationProbe+1)*deactivationProbe)
			_ = step.Advance(ctx, pos+i) // never polls, never fails
			if i%deactivationProbe != 0 {
				break
			}
			if isASG {
				trace = append(trace, snapshot{
					after:    i,
					fp:       e.Fingerprint(),
					frontier: frontierOf(e),
				})
				continue
			}
			if !p.Cfg.DisableDeactivation && probe < len(asgTrace) && asgTrace[probe].after == i {
				s := asgTrace[probe]
				probe++
				dead := e.FrontierLen() == 0
				if !dead && p.Cfg.AbsorbDeactivation {
					// The flow's hardware vector equals the ASG flow's exactly
					// when its enumeration activity is inside the baseline's.
					// The snapshot is sorted, so containment is a binary
					// search per state — no per-probe sort or allocation.
					f.ctxBuf = e.AppendFrontier(f.ctxBuf[:0])
					dead = subsetOfSorted(f.ctxBuf, s.frontier)
				}
				if dead {
					f.alive = false
					seg.Deactivations++
					break
				}
			} else {
				probe++
			}
		}
		f.symbols += int64(step.Pos() - pos)
	}
	// Save through the flow's reusable buffer: the SVC copies on Save, so
	// the per-round sorted-frontier allocation frontierOf used to pay is
	// gone from the hot loop.
	f.ctxBuf = appendFrontierSorted(e, f.ctxBuf)
	seg.svc.Save(f.svcID, f.ctxBuf, e.Fingerprint())
	if p.Cfg.Scored {
		f.scoreBuf = engine.AppendScoresOf(e, f.ctxBuf, f.scoreBuf[:0])
	}
	f.trans += e.Stats().Transitions - t0
	return trace
}

// frontierOf materialises an engine's frontier as a fresh sorted slice.
// Round-0 snapshots need owned copies; the per-round hot paths use
// appendFrontierSorted over a reusable buffer instead.
func frontierOf(e engine.Engine) []nfa.StateID {
	return appendFrontierSorted(e, nil)
}

// appendFrontierSorted fills buf (reusing its capacity) with the engine's
// frontier in sorted order and returns it.
func appendFrontierSorted(e engine.Engine, buf []nfa.StateID) []nfa.StateID {
	buf = e.AppendFrontier(buf[:0])
	slices.Sort(buf)
	return buf
}

// convEntry pairs an alive flow with its comparator fingerprint for the
// convergence grouping sort.
type convEntry struct {
	fp uint64
	f  *flowRun
}

// convergeFlows merges flows with identical state vectors (§3.3.3). The
// survivor inherits the absorbed flows' attribution from the merge offset
// onward, so composition can still credit their units with the shared
// continuation.
//
// Grouping sorts the alive flows by fingerprint in a reusable buffer
// (stable, so the survivor is still the lowest-id flow of its group) —
// the hash compare alone separates almost every pair, and the sorted
// vector walk runs only on hash hits, where it either confirms the merge
// or counts a verified collision. Zero allocations at steady state.
func (p *Plan) convergeFlows(seg *segmentResult, off int64) {
	sc := seg.convScratch[:0]
	for _, f := range seg.flows[1:] {
		if f.alive {
			sc = append(sc, convEntry{seg.svc.Fingerprint(f.svcID), f})
			seg.ConvCompares++ // one comparator access per vector visited
		}
	}
	seg.convScratch = sc
	// Stable insertion sort by fingerprint: flow counts are small (bounded
	// by the SVC plan), and stability keeps flows in id order within a
	// group, matching the survivor choice of the map-based predecessor.
	for i := 1; i < len(sc); i++ {
		for k := i; k > 0 && sc[k].fp < sc[k-1].fp; k-- {
			sc[k], sc[k-1] = sc[k-1], sc[k]
		}
	}
	for i := 0; i < len(sc); {
		k := i + 1
		for k < len(sc) && sc[k].fp == sc[i].fp {
			k++
		}
		if k-i >= 2 {
			survivor := sc[i].f
			sctx, _ := seg.svc.Load(survivor.svcID)
			for _, e := range sc[i+1 : k] {
				f := e.f
				seg.ConvCompares++
				ctx, _ := seg.svc.Load(f.svcID)
				if !equalContexts(ctx, sctx) {
					seg.FPCollisions++ // verified: same hash, vectors differ
					continue
				}
				f.alive = false
				f.merged = true
				f.mergedInto = survivor
				seg.svc.Invalidate(f.svcID)
				seg.Convergences++
				for _, a := range f.attrib {
					survivor.attrib = append(survivor.attrib, attribEntry{CC: a.CC, Unit: a.Unit, From: off})
				}
			}
		}
		i = k
	}
}

// subsetOf reports whether sorted slice a is contained in sorted slice b.
func subsetOf(a, b []nfa.StateID) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// subsetOfSorted reports whether every id of a (any order, no duplicates —
// an engine frontier) is contained in the sorted slice b.
func subsetOfSorted(a, b []nfa.StateID) bool {
	if len(a) > len(b) {
		return false
	}
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			return false
		}
	}
	return true
}

func equalContexts(a, b []nfa.StateID) bool {
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

func sortedIDs(ids []nfa.StateID) []nfa.StateID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// anyAttribTrue reports whether any attribution entry of a flow references
// a true unit (or is always-true).
func anyAttribTrue(attrib []attribEntry, unitTrue []bool) bool {
	for _, a := range attrib {
		if a.Unit == -1 || (a.Unit >= 0 && a.Unit < len(unitTrue) && unitTrue[a.Unit]) {
			return true
		}
	}
	return false
}

// attribTrue reports whether a report in component cc at offset off is
// covered by a true attribution entry. Always-true entries (Unit == -1)
// apply to every component when their CC is -1 (the ASG/golden flows).
func attribTrue(attrib []attribEntry, unitTrue []bool, cc int32, off int64) bool {
	for _, a := range attrib {
		if a.From > off {
			continue
		}
		if a.Unit == -1 {
			if a.CC == -1 || a.CC == cc {
				return true
			}
			continue
		}
		if a.CC == cc && a.Unit < len(unitTrue) && unitTrue[a.Unit] {
			return true
		}
	}
	return false
}

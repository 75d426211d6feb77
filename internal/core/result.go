package core

import (
	"context"
	"fmt"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
)

// SegmentStats is the exported per-segment view of one PAP execution.
type SegmentStats struct {
	Index          int
	Start, End     int
	BoundarySym    byte
	InitFlows      int
	Rounds         int
	AvgFlows       float64
	Deactivations  int
	Convergences   int
	FIVKills       int
	FIVApplied     bool
	Cycles         ap.Cycles
	SwitchCycles   ap.Cycles
	HostCycles     ap.Cycles
	KnownAt        ap.Cycles
	Events         int64
	Transitions    int64
	EngineSwitches int64 // adaptive-backend representation switches
	// PrefilterSkipped counts input bytes this segment's flows covered by
	// dead-frontier skips instead of stepping — a simulator fast-path
	// figure; the modelled cycle metrics charge every covered symbol.
	PrefilterSkipped int64
	// BaselineSkipped counts input bytes this segment's ASG flow covered by
	// the exact baseline-skip scan (start-class scanner over a dead
	// enumeration frontier); the same charging rule applies.
	BaselineSkipped int64
	// SFAMappings is the number of frontier-equivalence classes (entry→exit
	// mappings) this segment ran; 0 in flow mode and for segment 0.
	SFAMappings int
	// ComposeOps counts boundary-composition set operations (exit unions
	// and unit subset probes) charged to this segment's SFA finalize pass.
	ComposeOps int64
	// FPCollisions counts verified fingerprint collisions — hash compares
	// that matched but whose full vector compare disagreed — across
	// convergence, deactivation, class grouping, and SFA boundary checks.
	FPCollisions int64
}

// Result is the outcome of one PAP execution: the composed (exact) report
// set plus every modelled metric of the paper's evaluation.
type Result struct {
	Plan   *Plan
	Golden engine.Result

	// Reports is the composed, deduplicated output — provably equal to the
	// sequential run's (Correct is the check's outcome; under Config.Scored
	// the check also covers every report's score, since SameReports compares
	// scores and unscored runs carry all-zero scores).
	Reports []engine.Report
	Correct bool

	// BestScore is the maximum report score of a scored run (Config.Scored),
	// meaningful only when Reports is non-empty — scores may be negative, so
	// 0 is not a sentinel. Always 0 for unscored runs.
	BestScore int64

	BaselineCycles ap.Cycles // sequential AP: one symbol per cycle + host report scan
	TotalCycles    ap.Cycles // PAP completion time (after the golden-execution bound)
	RawTotalCycles ap.Cycles // before the never-worse clamp
	Clamped        bool      // true when golden execution won the race (§5.1)
	Speedup        float64
	IdealSpeedup   float64 // number of parallel segments

	Segments []SegmentStats

	// Figure 9: time-averaged number of active flows across enumeration
	// segments.
	AvgActiveFlows float64
	// Figure 10: flow switching cycles as a percentage of segment cycles.
	SwitchOverheadPct float64
	// Figure 11: average host-side false-path decode + FIV cost.
	AvgHostCycles ap.Cycles
	// Figure 12: emitted output events (all flows) / true output events.
	TotalEvents    int64
	ReportIncrease float64
	// §5.3 energy proxy: PAP transitions per symbol / sequential
	// transitions per symbol.
	TransitionRatio float64
	// EngineSwitches counts adaptive-backend representation switches
	// across all segment engines (0 for the fixed backends) — a simulator
	// observability figure, not an AP cost.
	EngineSwitches int64
	// PrefilterSkipped counts input bytes covered by dead-frontier
	// prefilter skips across all segment flows plus the golden run —
	// like EngineSwitches a simulator observability figure, never an AP
	// cost (skipped symbols are still charged their modelled cycles).
	PrefilterSkipped int64
	// BaselineSkipped counts input bytes covered by the exact baseline-skip
	// fast path (start-class scan over ASG-only regions) across all segment
	// flows plus the golden run. Unlike PrefilterSkipped this path is exact
	// for every observable, so it is deterministic across schedulers and
	// engine kinds; it too charges every covered symbol its modelled round.
	BaselineSkipped int64

	// SFAMappings is the total number of entry→exit mappings (frontier-
	// equivalence classes) run across segments; 0 in flow mode.
	SFAMappings int64
	// SFAComposeOps is the total boundary-composition work of the SFA
	// finalize pass; 0 in flow mode.
	SFAComposeOps int64
	// FingerprintCollisions counts verified fingerprint collisions across
	// all hash fast paths (convergence, deactivation, class grouping, SFA
	// boundary cross-checks) — hash hits whose full compare disagreed.
	FingerprintCollisions int64

	// CapacityNote is non-empty when the flow plan exceeds the SVC limit
	// (the run still simulates, as the paper's pre-optimization analyses do).
	CapacityNote string
}

// Run plans and executes PAP for one automaton and input, returning the
// composed reports and all modelled metrics.
func Run(n *nfa.NFA, input []byte, cfg Config) (*Result, error) {
	return RunContext(context.Background(), NewStatic(n, nil), input, cfg)
}

// RunContext is Run under a context: a cancelled or expired ctx stops the
// run at the next round boundary of every segment (and at coarse-grained
// polls of the golden execution) and returns ctx's error wrapped in
// *Aborted together with per-segment progress. Configured faults
// (Config.Fault) abort the same way. The final deferred recover is the
// backstop for panics outside any segment (plan build); segment panics
// are converted at the segment's boundary by guardSegment, the golden
// run's at its own by runGolden.
//
// st is the automaton to run, with its input-independent pre-processing
// (NewStatic). A caller that matches the same automaton repeatedly keeps
// one Static and passes it to every run, so no run builds a symbol plan
// another has built, and — when the Static shares the tables the caller's
// sequential runs fill — the golden run and the flow engines build no
// match vector a second time either.
func RunContext(ctx context.Context, st *Static, input []byte, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &Aborted{Cause: fmt.Errorf("core: pre-processing panicked: %v", r)}
		}
	}()
	plan, err := newPlan(input, cfg, st)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteContext(ctx, input)
}

// Baseline returns the sequential AP cycle cost for an input and its
// golden run: one symbol per cycle plus host event decoding (§4.1 accounts
// report post-processing in both baseline and PAP).
func Baseline(inputLen int, events int) ap.Cycles {
	return ap.Cycles(inputLen) + ap.Cycles(events*eventDecodeCycles)
}

// Execute runs the plan against the input it was built for.
func (p *Plan) Execute(input []byte) (*Result, error) {
	return p.ExecuteContext(context.Background(), input)
}

// ExecuteContext is Execute under a context; see RunContext for the
// cancellation contract.
func (p *Plan) ExecuteContext(ctx context.Context, input []byte) (*Result, error) {
	res := &Result{Plan: p, IdealSpeedup: float64(p.Segments)}
	if err := p.CheckCapacity(); err != nil {
		res.CapacityNote = err.Error()
	}
	if p.Segments == 1 {
		// Nothing to parallelize: PAP degenerates to the baseline, on the
		// calling goroutine (a goroutine's wake-up costs more than a short
		// input's whole run).
		golden, pos, err := p.sequentialRun(ctx, input, nil)
		if err != nil {
			return nil, abortedBeforeSegments(err, pos, len(input))
		}
		res.Golden = golden
		res.BaselineCycles = Baseline(len(input), len(golden.Reports))
		res.Reports = engine.DedupeReports(append([]engine.Report(nil), golden.Reports...))
		res.Correct = true
		res.BestScore, _ = engine.BestReportScore(res.Reports)
		res.TotalCycles, res.RawTotalCycles = res.BaselineCycles, res.BaselineCycles
		res.Speedup, res.IdealSpeedup = 1, 1
		res.TransitionRatio = 1
		res.ReportIncrease = 1
		res.TotalEvents = int64(len(golden.Reports))
		return res, nil
	}

	// The golden execution (§5.1) runs beside the segments when the
	// parallel scheduler has a helper to drive them meanwhile
	// (executeParallel); with one worker, or under the serial scheduler,
	// there is no one to run beside and it runs first, here.
	g := newGoldenRun(len(p.Cuts))
	if p.Cfg.Workers == 1 || !p.Cfg.SegmentParallel {
		if p.runGolden(ctx, g, input); g.err != nil {
			return nil, abortedBeforeSegments(g.err, g.pos, len(input))
		}
	}

	segs := p.buildSegments(input)

	// Execute the segments, chaining truth through the timeline (§3.4,
	// Figure 6): each segment's state-vector transfer and event scan start
	// when it finishes and overlap everything else; only the
	// truth-propagation step chains serially. The FIV for segment j+1
	// departs as soon as segment j's truth is known. Both schedulers run
	// one round loop and produce bit-identical modelled metrics; the
	// parallel one (sched.go, the default) also overlaps the segments'
	// wall-clock simulation the way the hardware overlaps its half-cores.
	if p.Cfg.SegmentParallel {
		p.executeParallel(ctx, segs, input, g)
	} else {
		p.executeSerial(ctx, segs, input, g)
	}
	if err := abortError(g.err, segs, ctx.Err()); err != nil {
		return nil, err
	}
	// Mode post-pass, with every segment and the golden run joined: flow
	// mode decodes the unit truth no FIV needed earlier, SFA composes the
	// per-segment entry→exit mappings left-to-right — either way every
	// segment's unit truth stands before report composition.
	p.execMode().finalize(p, segs, g)
	if err := abortError(g.err, segs, ctx.Err()); err != nil {
		return nil, err
	}
	res.Golden = g.res
	res.BaselineCycles = Baseline(len(input), len(g.res.Reports))
	res.RawTotalCycles = segs[len(segs)-1].KnownAt
	res.TotalCycles = res.RawTotalCycles
	if res.TotalCycles > res.BaselineCycles {
		// Golden execution (§5.1): the half-core that ran segment 1 keeps
		// processing the remaining segments sequentially with known start
		// states, so PAP never loses to the baseline.
		res.TotalCycles = res.BaselineCycles
		res.Clamped = true
	}
	res.Speedup = float64(res.BaselineCycles) / float64(res.TotalCycles)

	p.compose(res, segs)
	p.aggregate(res, segs)
	return res, nil
}

// buildSegments constructs the runtime flows of every segment: segment 0
// gets the golden flow (true start states known); segments j>0 get the ASG
// flow plus the execution mode's enumeration flows — one per FlowSpec of
// the boundary symbol's plan in flow mode, one per frontier-equivalence
// class in SFA mode. Nothing here reads the golden run: what a segment
// takes from its start boundary (unit truth, entry scores) it takes when
// it first needs it.
func (p *Plan) buildSegments(input []byte) []*segmentResult {
	mode := p.execMode()
	segs := make([]*segmentResult, p.Segments)
	for j := 0; j < p.Segments; j++ {
		start, end := 0, len(input)
		if j > 0 {
			start = p.Cuts[j-1]
		}
		if j < len(p.Cuts) {
			end = p.Cuts[j]
		}
		seg := &segmentResult{
			Index: j,
			Start: start,
			End:   end,
			svc:   ap.NewSVC(p.Placement.Devices),
		}
		segs[j] = seg
		base := newFlowRun(0, true) // golden flow of segment 0, ASG flow elsewhere
		base.attrib = []attribEntry{{CC: -1, Unit: -1, From: int64(start)}}
		seg.flows = []*flowRun{base}
		seg.InitFlows = 1
		if j == 0 {
			base.svcID = seg.svc.AllocOverflow(p.static.startSeed, p.static.startFP)
			continue
		}
		seg.Sym = input[start-1]
		base.svcID = seg.svc.AllocOverflow(nil, 0)
		mode.seedSegment(p, seg)
		seg.InitFlows = len(seg.flows)
	}
	return segs
}

// chainSegment performs the host-side truth-propagation step for one
// finished segment (§3.4): count the surviving flows, decode against the
// next segment's units, and fold the predecessor's KnownAt into this one —
// the serial link of the timeline, from the segment's completion time
// seg.Cycles. prevKnown is the predecessor's KnownAt (0 for segment 0).
// Returns — and records — this segment's KnownAt.
func (p *Plan) chainSegment(seg *segmentResult, next *segmentResult, prevKnown ap.Cycles) ap.Cycles {
	if err := p.Cfg.fire(faultinject.TruthPublish, seg.Index, -1); err != nil {
		seg.err = err
		return 0 // callers check seg.err and never use this KnownAt
	}
	aliveFlows := 0
	for _, f := range seg.flows {
		if f.alive {
			aliveFlows++
		}
	}
	nextUnits := 0
	if next != nil {
		nextUnits = len(p.SymbolPlanFor(next.Sym).Units)
	}
	par := hostParallelCycles(p.Placement.Devices, seg.EventsEmitted, nextUnits, aliveFlows)
	ser := hostSerialCycles(nextUnits, aliveFlows)
	seg.HostCycles = par + ser
	known := seg.Cycles + par
	if seg.Index > 0 && prevKnown > known {
		known = prevKnown
	}
	seg.KnownAt = known + ser
	return seg.KnownAt
}

// unitTruth evaluates every unit of a symbol plan against the golden
// enabled set at a boundary: a unit is true iff its whole (non-baseline)
// seed is enabled — the host-computable criterion that is sound (subset
// activity is subset reports) and complete (a fired parent enables all its
// children).
func unitTruth(sp *SymbolPlan, b engine.Boundary) []bool {
	enabled := make(map[nfa.StateID]struct{}, len(b.Enabled))
	for _, q := range b.Enabled {
		enabled[q] = struct{}{}
	}
	out := make([]bool, len(sp.Units))
	for i, u := range sp.Units {
		ok := true
		for _, q := range u.seedCheck {
			if _, in := enabled[q]; !in {
				ok = false
				break
			}
		}
		out[i] = ok && len(u.seedCheck) > 0
	}
	return out
}

func fingerprintOf(seed []nfa.StateID, n *nfa.NFA) uint64 {
	var fp uint64
	var prev nfa.StateID = -1
	for _, q := range seed { // sorted; skip duplicates
		if q != prev {
			fp ^= engine.Key(q)
			prev = q
		}
	}
	return fp
}

// dropAllInput removes always-enabled states (and duplicates) from a
// sorted seed: they are implicit in every flow's vector.
func dropAllInput(sorted []nfa.StateID, n *nfa.NFA) []nfa.StateID {
	out := sorted[:0]
	var prev nfa.StateID = -1
	for _, q := range sorted {
		if !isAllInput(n, q) && q != prev {
			out = append(out, q)
			prev = q
		}
	}
	return out
}

// compose filters every flow's reports by unit truth and unions them
// (§3.4): a report in connected component c of flow f is kept iff an
// attribution entry of f covers c with a true unit at or before the
// report's offset. Baseline-caused reports are kept via the always-true
// entries of the ASG/golden flows. The result is compared against the
// golden sequential run.
func (p *Plan) compose(res *Result, segs []*segmentResult) {
	ccIDs, _ := p.NFA.ConnectedComponents()
	n := 0
	for _, seg := range segs {
		for _, f := range seg.flows {
			n += len(f.reports)
		}
	}
	var out []engine.Report
	if n > 0 {
		out = make([]engine.Report, 0, n)
	}
	for _, seg := range segs {
		for _, f := range seg.flows {
			for _, r := range f.reports {
				if attribTrue(f.attrib, seg.unitTrue, ccIDs[r.State], r.Offset) {
					out = append(out, r)
				}
			}
		}
	}
	res.Reports = engine.DedupeReports(out)
	res.Correct = engine.SameReports(res.Reports, res.Golden.Reports)
	res.BestScore, _ = engine.BestReportScore(res.Reports)
}

// aggregate fills the whole-run metrics from per-segment results.
func (p *Plan) aggregate(res *Result, segs []*segmentResult) {
	var flowRounds, rounds int64
	var switchCyc, cyc, hostCyc ap.Cycles
	var events, trans int64
	hostSamples := 0
	res.Segments = make([]SegmentStats, 0, len(segs))
	for _, seg := range segs {
		res.Segments = append(res.Segments, SegmentStats{
			Index:            seg.Index,
			Start:            seg.Start,
			End:              seg.End,
			BoundarySym:      seg.Sym,
			InitFlows:        seg.InitFlows,
			Rounds:           seg.Rounds,
			AvgFlows:         safeDiv(float64(seg.FlowRounds), float64(seg.Rounds)),
			Deactivations:    seg.Deactivations,
			Convergences:     seg.Convergences,
			FIVKills:         seg.FIVKills,
			FIVApplied:       seg.FIVApplied,
			Cycles:           seg.Cycles,
			SwitchCycles:     seg.SwitchCycles,
			HostCycles:       seg.HostCycles,
			KnownAt:          seg.KnownAt,
			Events:           seg.EventsEmitted,
			Transitions:      seg.Transitions,
			EngineSwitches:   seg.EngSwitches,
			PrefilterSkipped: seg.PrefilterSkip,
			BaselineSkipped:  seg.BaselineSkip,
			SFAMappings:      seg.SFAMappings,
			ComposeOps:       seg.ComposeOps,
			FPCollisions:     seg.FPCollisions,
		})
		cyc += seg.Cycles
		switchCyc += seg.SwitchCycles
		events += seg.EventsEmitted
		trans += seg.Transitions
		res.EngineSwitches += seg.EngSwitches
		res.PrefilterSkipped += seg.PrefilterSkip
		res.BaselineSkipped += seg.BaselineSkip
		res.SFAMappings += int64(seg.SFAMappings)
		res.SFAComposeOps += seg.ComposeOps
		res.FingerprintCollisions += seg.FPCollisions
		if seg.Index > 0 {
			flowRounds += seg.FlowRounds
			rounds += int64(seg.Rounds)
		}
		if seg.Index < len(segs)-1 {
			hostCyc += seg.HostCycles
			hostSamples++
		}
	}
	res.PrefilterSkipped += res.Golden.PrefilterSkipped
	res.BaselineSkipped += res.Golden.BaselineSkipped
	res.AvgActiveFlows = safeDiv(float64(flowRounds), float64(rounds))
	res.SwitchOverheadPct = 100 * safeDiv(float64(switchCyc), float64(cyc))
	if hostSamples > 0 {
		res.AvgHostCycles = hostCyc / ap.Cycles(hostSamples)
	}
	res.TotalEvents = events
	res.ReportIncrease = safeDiv(float64(events), float64(len(res.Golden.Reports)))
	if len(res.Golden.Reports) == 0 {
		res.ReportIncrease = float64(events + 1)
	}
	res.TransitionRatio = safeDiv(float64(trans), float64(res.Golden.Transitions))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// CheckCorrect returns an error when the composed reports differ from the
// sequential run — which would indicate a bug in the parallelization, never
// an expected condition.
func (r *Result) CheckCorrect() error {
	if !r.Correct {
		return fmt.Errorf("core: composed reports differ from sequential execution (%d vs %d events)",
			len(r.Reports), len(r.Golden.Reports))
	}
	return nil
}

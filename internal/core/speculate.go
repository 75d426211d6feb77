package core

// Speculative execution (the paper's §6 future-work direction, after Zhao &
// Shen's principled speculation): instead of enumerating every possible
// start state of a segment, predict that a segment boundary carries no
// enumeration activity at all — only the always-active baseline — and run
// just the ASG flow. When the truth chain catches up and the prediction was
// wrong (the golden boundary state is non-empty), the segment re-executes
// from its boundary with the now-known true start states on its own
// half-core.
//
// The prediction is free when right (zero flows, zero switching) and costs
// one extra segment pass when wrong, serialized behind the truth chain —
// so speculation wins on cold streams (rare boundary activity) and
// collapses toward the sequential baseline on hot ones. The Speculation
// experiment quantifies exactly this trade-off against enumeration, which
// is why the paper chose enumeration for pm = 0.75 traffic.

import (
	"pap/internal/ap"
	"pap/internal/engine"
)

// runSpeculative executes one segment under speculation. The ASG-only pass
// has already run (seg.flows == {ASG}); this applies the misprediction
// penalty: re-running the segment with the true boundary state — read from
// the golden run, which must have passed the segment's start — starting
// once that state is known (readyAt) and the pass has finished. The
// functional re-execution runs on the segment's own engine, as the paper's
// re-run occupies the segment's own half-core. It returns the segment's
// completion time; a golden run that stopped short of the boundary leaves
// its error on the segment.
func (p *Plan) runSpeculative(seg *segmentResult, input []byte, e engine.Engine,
	g *goldenRun, readyAt ap.Cycles) ap.Cycles {

	done := seg.Cycles
	boundary, ok := seg.entry(g)
	if !ok {
		return done
	}
	if len(boundary.Enabled) == 0 {
		return done // prediction correct: nothing was missed
	}
	seg.Mispredicted = true

	// Functional re-execution: the enumeration part only (the ASG pass
	// already produced the baseline's reports), seeded with the true
	// boundary state. Its reports are true by construction.
	rerun := newFlowRun(len(seg.flows), false)
	rerun.attrib = []attribEntry{{CC: -1, Unit: -1, From: int64(seg.Start)}}
	before := e.Stats()
	e.SetBaseline(false)
	e.SetBaselineSkip(false) // skipping is core's job (see runFlowRound)
	if p.Cfg.Scored {
		// The golden boundary carries exact best-path scores for every
		// enabled state; seeding with them makes the re-run's reports
		// score-exact just like enumeration flows (see entryScores).
		engine.ResetScoredOf(e, boundary.Enabled, boundary.Scores)
	} else {
		e.Reset(boundary.Enabled)
	}
	for i := seg.Start; i < seg.End; {
		if !p.Cfg.DisablePrefilter && e.Dead() {
			// Baseline is off: a dead enumeration frontier can never
			// revive, so the remainder is inert (and still charged).
			rerun.symbols += int64(seg.End - i)
			rerun.skipped += int64(seg.End - i)
			break
		}
		c, _, _ := e.StepBatch(input[i:seg.End], int64(i), rerun.emit)
		rerun.symbols += int64(c)
		i += c
	}
	after := e.Stats()
	rerun.trans = after.Transitions - before.Transitions
	seg.EngSwitches += after.Switches - before.Switches
	seg.flows = append(seg.flows, rerun)

	// Timing: the re-run occupies the segment's half-core for its full
	// length, starting when both the speculative pass is done and the true
	// boundary state has arrived from the previous segment.
	start := done
	if readyAt > start {
		start = readyAt
	}
	rerunCycles := ap.Cycles(seg.End - seg.Start)
	seg.Cycles += rerunCycles
	seg.RerunCycles = rerunCycles
	seg.Transitions += rerun.trans
	seg.EventsEmitted += int64(len(rerun.reports))
	seg.PrefilterSkip += rerun.skipped
	return start + rerunCycles
}

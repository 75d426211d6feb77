package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/faultinject"
)

// Cross-segment scheduler: the paper's machine model runs the k input
// segments simultaneously on k half-cores from t=0 (§3, Figure 6), with the
// only serial dependency being truth propagation — segment j's decoded
// boundary truth (and the Flow Invalidation Vector derived from it) reaches
// segment j+1 FIVTransferCycles after segment j's truth is known (§3.4).
//
// The simulator mirrors that shape. executeParallel runs the segments on up
// to Config.Workers simulator goroutines, the calling one among them; a
// driver takes the lowest unstarted segment, holds one engine for the
// segment's life and runs all of its rounds itself (runSegmentRounds) — the
// paper's one half-core per segment — and chains truth through per-segment
// truthCells. Segments start in order, so the lowest running segment never
// waits on a predecessor that has no driver. The subtle part is keeping
// modelled time exact while real time is concurrent: segment j+1 must
// decide, at each of its own round boundaries, whether the FIV "has arrived
// by now" in modelled cycles — before segment j has necessarily finished
// computing its KnownAt. The truthCell protocol makes that decision safe:
//
//   - Segment j publishes a monotone lower bound on its final KnownAt after
//     every trip of its round loop (its accumulated busy cycles; KnownAt >=
//     final Cycles by construction in chainSegment).
//   - Segment j+1, at a round boundary at modelled time c, waits only while
//     the truth is unknown AND bound + FIVTransferCycles <= c. Once
//     bound + FIVTransferCycles > c the FIV provably cannot have arrived by
//     c, so the round loop continues without blocking; once the truth is
//     known the comparison is exact.
//
// Decisions that cannot affect the remaining loop are deferred instead of
// blocking: the check after the final round, and checks while no
// enumeration flow is alive (nothing to kill). finishFIV resolves them
// after the loop from the final, monotone seg.Cycles — producing the same
// FIVApplied flag and kill set the serial scheduler computes in-loop.
//
// The cells carry timing only. The truth *content* a segment consumes — its
// units' truth at its start boundary and its flows' entry scores — comes
// from the golden execution, which the calling goroutine makes beside the
// drivers, as §5.1 has the half-core of segment 1 carry on through the
// input (golden.go): each reader waits for the golden run to pass its one
// cut, at the point where it first needs the content, and nothing modelled
// depends on when that is. The result: every modelled ap.Cycles metric is bit-identical between
// executeSerial and executeParallel (the conformance parity invariant
// asserts this); only wall-clock changes.
//
// executeSerial is the same round loop with none of this: the golden run
// first, then segment after segment on one engine, all on the calling
// goroutine — it starts no goroutine at all.

// maxCycles stands in for "never" (an FIV that cannot arrive).
const maxCycles = ap.Cycles(1<<62 - 1)

// truthCell carries one segment's truth timing to its successor.
type truthCell struct {
	mu       sync.Mutex
	cond     sync.Cond // on mu
	progress ap.Cycles // monotone lower bound on the final knownAt
	known    bool
	knownAt  ap.Cycles // final KnownAt, valid once known
	aborted  bool      // publisher died without resolving; truth never arrives
}

// newTruthCells returns one cell per segment, in one allocation.
func newTruthCells(n int) []truthCell {
	cells := make([]truthCell, n)
	for i := range cells {
		cells[i].cond.L = &cells[i].mu
	}
	return cells
}

// advance raises the published lower bound on this segment's KnownAt.
func (t *truthCell) advance(c ap.Cycles) {
	t.mu.Lock()
	if c > t.progress {
		t.progress = c
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// resolve publishes the final KnownAt and wakes every waiter.
func (t *truthCell) resolve(knownAt ap.Cycles) {
	t.mu.Lock()
	t.known = true
	t.knownAt = knownAt
	if knownAt > t.progress {
		t.progress = knownAt
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// abort marks the cell as never-resolving and wakes every waiter; a no-op
// once the cell is resolved. Every segment goroutine aborts its own cell
// on exit (deferred), so a cancelled, failed, or panicked publisher can
// never strand a waiting successor.
func (t *truthCell) abort() {
	t.mu.Lock()
	if !t.known {
		t.aborted = true
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// waitKnown blocks until the final KnownAt is published, or the publisher
// aborts (ok = false: the truth will never arrive).
func (t *truthCell) waitKnown() (knownAt ap.Cycles, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.known && !t.aborted {
		t.cond.Wait()
	}
	return t.knownAt, t.known
}

// waitDecidable blocks until the FIV question at modelled time c is
// decidable: either the truth is known (exact comparison), or the
// publisher's progress guarantees the FIV cannot arrive by c, or the
// publisher aborted (the FIV then never arrives; the caller's own round
// loop notices the run abort at its next boundary).
func (t *truthCell) waitDecidable(c ap.Cycles) (knownAt ap.Cycles, known bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.known && !t.aborted && t.progress+ap.FIVTransferCycles <= c {
		t.cond.Wait()
	}
	return t.knownAt, t.known
}

// pipelineFIV is the parallel scheduler's per-segment policy (see
// segScheduler in exec.go): publish progress every round, answer FIV checks
// from the predecessor's truth cell.
type pipelineFIV struct {
	pred *truthCell // nil for segment 0 (no FIV ever arrives)
	self *truthCell
}

func (s *pipelineFIV) tick(seg *segmentResult) { s.self.advance(seg.Cycles) }

func (s *pipelineFIV) fivArrived(seg *segmentResult, last bool) bool {
	if s.pred == nil {
		return false
	}
	if last || !anyAliveEnum(seg) {
		// Nothing a kill could change in the remaining loop; decided by
		// finishFIV once the predecessor's truth is known, without blocking.
		return false
	}
	knownAt, known := s.pred.waitDecidable(seg.Cycles)
	return known && seg.Cycles >= knownAt+ap.FIVTransferCycles
}

// anyAliveEnum reports whether any enumeration flow is still alive.
func anyAliveEnum(seg *segmentResult) bool {
	for _, f := range seg.flows[1:] {
		if f.alive {
			return true
		}
	}
	return false
}

// finishFIV resolves a deferred FIV decision after the round loop: the
// serial scheduler would have checked seg.Cycles >= fivAt at the skipped
// round boundaries, and because seg.Cycles is monotone the final value
// decides identically.
func (p *Plan) finishFIV(seg *segmentResult, g *goldenRun, fivAt ap.Cycles) {
	if !p.fivEnabled() || seg.FIVApplied {
		return
	}
	if seg.Cycles >= fivAt {
		if err := p.Cfg.fire(faultinject.FIVTransfer, seg.Index, -1); err != nil {
			seg.err = err
			return
		}
		p.applyFIV(seg, g)
	}
}

// guardSegment is the panic-recovery boundary of one segment's execution:
// it runs body and converts a panic — engine bug, injected fault — into an
// error on the segment, annotated with the segment's progress and, via the
// panic value (faultinject.InjectedPanic), the offending seed. The run
// then aborts cleanly instead of crashing the process, with all other
// segments drained and no goroutine leaked.
func (p *Plan) guardSegment(seg *segmentResult, body func()) {
	defer func() {
		if r := recover(); r != nil {
			seg.err = fmt.Errorf("core: segment %d panicked at pos %d (%d rounds): %v\n%s",
				seg.Index, seg.progress(), seg.Rounds, r, debug.Stack())
		}
	}()
	body()
}

// executeSerial runs segments one after another on one engine and the
// calling goroutine, after the golden run — the original scheduler, kept
// (Config.SegmentParallel = false) as the determinism baseline the parallel
// scheduler is checked against. The first segment error (context
// cancellation, fault, recovered panic) stops the chain; later segments
// keep their zero progress for the abort report.
func (p *Plan) executeSerial(ctx context.Context, segs []*segmentResult, input []byte, g *goldenRun) {
	e := p.newEngine()
	var prevKnown ap.Cycles
	for j, seg := range segs {
		fivAt := maxCycles
		if j > 0 && p.fivEnabled() {
			fivAt = prevKnown + ap.FIVTransferCycles
		}
		p.guardSegment(seg, func() {
			p.runSegmentRounds(ctx, seg, input, e, g, serialFIV{fivAt})
			if seg.err != nil {
				return
			}
			var next *segmentResult
			if j+1 < len(segs) {
				next = segs[j+1]
			}
			prevKnown = p.chainSegment(seg, next, prevKnown)
		})
		if seg.err != nil {
			return
		}
	}
}

// executeParallel runs the segments on up to Config.Workers simulator
// goroutines, the calling one among them, chaining truth through
// truthCells, with the golden execution beside the drivers unless the
// caller has made it already. Segment j resolves its cell the moment
// chainSegment computes its KnownAt; segment j+1's in-loop FIV gate fires
// on receipt.
//
// The calling goroutine makes the golden run and then drives segments like
// any helper. A driver takes the lowest unstarted segment, runs every round
// of it on the one engine it keeps from segment to segment (built when it
// takes its first), and comes back for the next. Segments are therefore
// started in order — were they not, segment 1 could occupy the only worker
// while waiting on a segment 0 that never gets to run — and the lowest
// running segment's predecessors have all finished, so it waits on nothing
// but the golden run, which waits on no one.
//
// Helpers are recruited one by the next: the caller starts the first before
// it turns to the golden run, and a helper that gets going while a segment
// is still untaken starts its successor before it takes one. A long input
// has all its workers within a few goroutine wake-ups; an input the caller
// gets through before the first helper is scheduled pays for that one
// goroutine, not for one per segment or per processor — and what a call
// costs does not depend on how many of them woke in time.
//
// Failure protocol: the first failure — a segment's or the golden run's —
// cancels the run context, so every other goroutine stops at its next poll
// and no further segment is taken; a driver aborts its segment's truth cell
// when the segment ends unresolved and the golden run always ends by
// marking itself done, so no one blocks on a truth that will never be
// published. executeParallel always joins every goroutine it started
// before returning — cancellation leaks nothing.
func (p *Plan) executeParallel(ctx context.Context, segs []*segmentResult, input []byte, g *goldenRun) {
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	cells := newTruthCells(len(segs))
	var (
		wg      sync.WaitGroup
		next    atomic.Int64 // segments taken so far: the lowest unstarted one
		helpers atomic.Int64 // recruit calls so far; the caller is worker 0
		drive   func()
		recruit func()
	)
	recruit = func() {
		if int(next.Load()) >= len(segs) || int(helpers.Add(1)) >= p.Cfg.Workers {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recruit()
			drive()
		}()
	}
	drive = func() {
		var e engine.Engine
		// A failed run takes no further segment: the unstarted ones keep
		// their zero progress.
		for runCtx.Err() == nil {
			j := int(next.Add(1)) - 1
			if j >= len(segs) {
				return
			}
			p.guardSegment(segs[j], func() {
				if e == nil {
					e = p.newEngine()
				}
				p.driveSegment(runCtx, segs, j, cells, input, e, g)
			})
			cells[j].abort() // no-op when resolve already ran
			if segs[j].err != nil {
				cancelRun()
			}
		}
	}
	recruit()
	if !g.done {
		if p.runGolden(runCtx, g, input); g.err != nil {
			cancelRun()
		}
	}
	drive()
	wg.Wait()
}

// driveSegment is one segment's part of executeParallel: its rounds on e,
// then the chain step, gated on and published through the truth cells.
func (p *Plan) driveSegment(ctx context.Context, segs []*segmentResult, j int, cells []truthCell, input []byte, e engine.Engine, g *goldenRun) {
	seg := segs[j]
	var pred *truthCell
	if j > 0 {
		pred = &cells[j-1]
	}
	p.runSegmentRounds(ctx, seg, input, e, g, &pipelineFIV{pred: pred, self: &cells[j]})
	if seg.err != nil {
		return
	}
	var prevKnown ap.Cycles
	if j > 0 {
		pk, ok := pred.waitKnown()
		if !ok {
			return // predecessor aborted; its error names the cause
		}
		prevKnown = pk
		p.finishFIV(seg, g, prevKnown+ap.FIVTransferCycles)
		if seg.err != nil {
			return
		}
	}
	var next *segmentResult
	if j+1 < len(segs) {
		next = segs[j+1]
	}
	known := p.chainSegment(seg, next, prevKnown)
	if seg.err != nil {
		return
	}
	cells[j].resolve(known)
}

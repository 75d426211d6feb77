package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"pap/internal/engine"
	"pap/internal/faultinject"
)

// goldenRun is the golden execution (§5.1) as the segments see it: the
// sequential run from the known start states, whose state at each cut is
// the true entry of the segment starting there. On the paper's machine the
// half-core that ran segment 1 carries on through the input while the
// other segments enumerate; here the run carries on beside the segment
// drivers (executeParallel) and publishes each Boundary as it passes the
// cut. Every read of a boundary goes through boundary(), which waits for
// that one cut only — so a segment needs the golden run no further along
// than its own start, and needs it only where truth content is consumed:
// decoding the FIV, seeding entry scores, report composition. What the
// segments exchange through truthCells is timing; nothing modelled depends
// on when a boundary arrives.
type goldenRun struct {
	mu     sync.Mutex
	cond   sync.Cond         // on mu
	bounds []engine.Boundary // one per cut passed so far, in cut order
	done   bool              // the run has ended; no further boundary comes

	// The run's outcome, written before done is set: its result and the
	// symbols it processed, and why it stopped short of the input's end
	// (nil for a complete run).
	res engine.Result
	pos int
	err error
}

func newGoldenRun(cuts int) *goldenRun {
	g := &goldenRun{bounds: make([]engine.Boundary, 0, cuts)}
	g.cond.L = &g.mu
	return g
}

// boundary returns the golden state at cut i, blocking until the run has
// passed it. The error is the run's own when it stopped short of the cut:
// that truth never arrives.
func (g *goldenRun) boundary(i int) (engine.Boundary, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i >= len(g.bounds) && !g.done {
		g.cond.Wait()
	}
	if i >= len(g.bounds) {
		return engine.Boundary{}, g.err
	}
	return g.bounds[i], nil
}

// entry returns the golden state at the segment's start boundary, waiting
// for the golden run to pass that cut. It returns false, with the golden
// run's error on the segment, when the run stopped short of it.
func (seg *segmentResult) entry(g *goldenRun) (engine.Boundary, bool) {
	b, err := g.boundary(seg.Index - 1)
	if err != nil {
		seg.err = err
	}
	return b, err == nil
}

// sequentialRun is the sequential execution of the whole input from the
// known start states: all there is to a one-segment plan, the golden
// execution of any other, which hands each boundary to onCut as it passes
// the cut. It returns the result, the symbols processed and, when the run
// stopped short of the input's end, why and where.
func (p *Plan) sequentialRun(ctx context.Context, input []byte, onCut func(engine.Boundary) error) (engine.Result, int, error) {
	res, _, pos, err := engine.RunWithBoundaries(ctx, p.NFA, input, p.Cuts, p.Cfg.Engine, p.static.tab,
		engine.RunOpts{DisableBaselineSkip: p.Cfg.DisableBaselineSkip, Scored: p.Cfg.Scored}, onCut)
	if err != nil {
		err = fmt.Errorf("golden execution at byte %d of %d: %w", pos, len(input), err)
	}
	return res, pos, err
}

// runGolden makes the golden execution over input, publishing to g as it
// goes. It is its own recovery boundary — a panic that unwound past it
// would leave the drivers beside it waiting — and always ends by marking g
// done, so no reader is left waiting on a cut the run will never reach.
func (p *Plan) runGolden(ctx context.Context, g *goldenRun, input []byte) {
	defer func() {
		if r := recover(); r != nil {
			g.err = fmt.Errorf("core: golden execution panicked after %d of %d cuts: %v\n%s",
				len(g.bounds), len(p.Cuts), r, debug.Stack())
		}
		g.mu.Lock()
		g.done = true
		g.cond.Broadcast()
		g.mu.Unlock()
	}()
	g.res, g.pos, g.err = p.sequentialRun(ctx, input, func(b engine.Boundary) error {
		if err := p.Cfg.fire(faultinject.GoldenBoundary, len(g.bounds)+1, -1); err != nil {
			return err
		}
		g.mu.Lock()
		g.bounds = append(g.bounds, b)
		g.cond.Broadcast()
		g.mu.Unlock()
		return nil
	})
}

// abortedBeforeSegments is the error of a run whose sequential execution,
// made before any segment existed, stopped at pos: whole-input progress.
func abortedBeforeSegments(cause error, pos, inputLen int) error {
	return &Aborted{
		Cause:    cause,
		Segments: []SegmentProgress{{Index: 0, Start: 0, End: inputLen, Pos: pos}},
	}
}

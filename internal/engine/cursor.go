package engine

import (
	"context"

	"pap/internal/prefilter"
)

// Cursor is the one loop that advances an engine over input: it skips a
// dead frontier, polls a context and steps, and returns at the caller's
// stop. Every sequential caller goes through it — the Run* entry points
// (and with them core's golden execution), pap.Stream and every flow round
// of core — so the dead-frontier skip lives here and StepBatch only steps.
//
// The skip is a simulator fast path: the AP broadcasts every symbol whether
// or not a state fires. A dead frontier — nothing enabled beyond the
// always-active baseline — is revived only by a byte of the automaton's
// start class, so with the baseline on the cursor scans to the next one;
// with the baseline off nothing revives it and the rest of the window is
// inert. Both are exact: a skipped symbol fires nothing and traverses no
// edge, and the frontier stays empty, so it adds 0 to every counter. The
// literal tier of a prefilter (RunOpts.LiteralPrefilter) jumps further and
// is exact for reports only. A skip leaves the engine's fired set as it was;
// a caller that reads it steps the symbol with Step.
//
// A Cursor is a value: callers keep it on their stack, or in their own
// struct across calls (pap.Stream). Not safe for concurrent use.
type Cursor struct {
	eng Engine
	// The dead-frontier skip. With the baseline on, pf (a prefilter skip,
	// with its literal tier when literal is set) or else scan (a baseline
	// skip) finds where stepping resumes; nil steps. With the baseline off,
	// inert skips the rest of the window. baseline mirrors the engine's.
	scan     *prefilter.ClassScanner
	pf       *prefilter.Prefilter
	literal  bool
	inert    bool
	baseline bool
	// every is the context poll distance in symbols; 0 never polls.
	every int

	input    []byte
	base     int64 // stream offset of input[0]
	pos      int
	nextPoll int

	// Emit receives the reports of stepped symbols; nil drops them.
	Emit EmitFunc
	// SumFrontier and MaxFrontier are the sum and the maximum of the
	// frontier length over every symbol advanced past.
	SumFrontier int64
	MaxFrontier int
	// PrefilterSkipped counts the symbols a prefilter skipped and those of
	// inert windows; BaselineSkipped counts those the class scan skipped.
	PrefilterSkipped, BaselineSkipped int64
}

// NewCursor returns a cursor driving e that never polls a context: with
// the baseline on a dead frontier scans to the next byte of scan (nil
// steps instead), and with it off, when inert is set, skips the rest of
// the window. core's flow rounds use it; the run loops and streams take
// the cursor NewWithOpts chooses for their kind.
func NewCursor(e Engine, scan *prefilter.ClassScanner, inert bool) Cursor {
	return Cursor{eng: e, scan: scan, inert: inert, baseline: true}
}

// Engine returns the engine the cursor drives.
func (c *Cursor) Engine() Engine { return c.eng }

// SetBaseline switches the engine's baseline injection (see
// Sparse.SetBaseline) and the skip rule that goes with it.
func (c *Cursor) SetBaseline(on bool) {
	c.baseline = on
	c.eng.SetBaseline(on)
}

// Feed points the cursor at input[pos], input[0] being at offset base of
// the stream the reports are numbered in, and makes the next Advance poll
// its context before it moves.
func (c *Cursor) Feed(input []byte, pos int, base int64) {
	c.input, c.pos, c.base, c.nextPoll = input, pos, base, pos
}

// Pos returns the index in the fed input of the next symbol.
func (c *Cursor) Pos() int { return c.pos }

// Advance consumes the fed input up to index stop: a dead frontier skips,
// anything else goes through StepBatch. When the cursor polls, ctx is
// polled before the first symbol and then every CtxCheckEvery symbols, and
// no skip or batch runs past a poll point, except a literal jump — its scan
// is not bounded by the window, so the poll follows where it landed. On
// cancellation it returns ctx's error with Pos at the poll.
func (c *Cursor) Advance(ctx context.Context, stop int) error {
	skips := c.scan != nil || c.pf != nil || c.inert
	for c.pos < stop {
		end := stop
		if c.every > 0 {
			if c.pos >= c.nextPoll {
				if err := ctx.Err(); err != nil {
					return err
				}
				c.nextPoll = c.pos + c.every
			}
			end = min(end, c.nextPoll)
		}
		if skips && c.eng.Dead() {
			if j := c.skip(end, stop); j > c.pos {
				c.pos = j
				continue
			}
		}
		n, sum, peak := c.eng.StepBatch(c.input[c.pos:end], c.base+int64(c.pos), c.Emit)
		c.pos += n
		c.SumFrontier += sum
		c.MaxFrontier = max(c.MaxFrontier, peak)
	}
	return nil
}

// skip returns where a dead frontier at Pos resumes stepping — at most end,
// or stop for a literal jump — and counts the symbols it passes over.
func (c *Cursor) skip(end, stop int) int {
	pos, j := c.pos, c.pos
	switch {
	case !c.baseline:
		if c.inert {
			j = end
			c.PrefilterSkipped += int64(j - pos)
		}
	case c.pf != nil:
		if c.literal {
			j = min(c.pf.NextLiteral(c.input, pos), stop)
		} else {
			j = c.pf.NextIn(c.input, pos, end)
		}
		c.PrefilterSkipped += int64(j - pos)
	case c.scan != nil:
		j = c.scan.NextIn(c.input, pos, end)
		c.BaselineSkipped += int64(j - pos)
	}
	return j
}

// Step steps the symbol at Pos alone, with scalar Step, so that the
// engine's fired and enabled sets are that symbol's whatever came before.
func (c *Cursor) Step() {
	c.eng.Step(c.input[c.pos], c.base+int64(c.pos), c.Emit)
	l := c.eng.FrontierLen()
	c.SumFrontier += int64(l)
	c.MaxFrontier = max(c.MaxFrontier, l)
	c.pos++
}

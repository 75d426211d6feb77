package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pap/internal/faultinject"
)

// SegmentProgress is how far one segment had advanced when a run aborted.
// Pos is the next unprocessed input offset: Pos == Start means the segment
// never ran a round, Pos == End means its round loop had finished.
type SegmentProgress struct {
	Index      int
	Start, End int
	Pos        int
	Rounds     int
}

func (p SegmentProgress) String() string {
	return fmt.Sprintf("seg %d: %d/%d bytes (%d..%d), %d rounds",
		p.Index, p.Pos-p.Start, p.End-p.Start, p.Start, p.End, p.Rounds)
}

// Aborted is the error of a run stopped before completion — by context
// cancellation or deadline, an injected fault, or a recovered panic. It
// wraps the underlying cause (errors.Is(err, context.DeadlineExceeded)
// etc. see through it) and carries every segment's progress at the stop.
type Aborted struct {
	Cause    error
	Segments []SegmentProgress
}

func (e *Aborted) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: run aborted: %v", e.Cause)
	for _, s := range e.Segments {
		b.WriteString("; ")
		b.WriteString(s.String())
	}
	return b.String()
}

func (e *Aborted) Unwrap() error { return e.Cause }

// fire invokes the configured fault hook at a pipeline point; nil hooks
// cost one comparison.
func (c *Config) fire(stage faultinject.Stage, segment, round int) error {
	if c.Fault == nil {
		return nil
	}
	return c.Fault(faultinject.Point{Stage: stage, Segment: segment, Round: round})
}

// ctxAborted reports whether err is a context cancellation or deadline —
// the errors a sibling-triggered run abort also manifests as.
func ctxAborted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// abortError assembles the Aborted error for a run whose golden execution
// and segments carry the given errors, preferring a root cause (fault,
// panic) — the golden run's, then the lowest segment's — over the secondary
// context errors the others die with when the run context is cancelled on
// first failure. Without a root cause the caller gave up: the golden run's
// context error says how far the input was verified; otherwise ctxErr, the
// caller context's own error, is the cause (nil when only a fault aborted
// the run).
func abortError(goldenErr error, segs []*segmentResult, ctxErr error) error {
	cause := goldenErr
	var anyErr error
	for _, seg := range segs {
		if seg.err == nil {
			continue
		}
		if anyErr == nil {
			anyErr = seg.err
		}
		if (cause == nil || ctxAborted(cause)) && !ctxAborted(seg.err) {
			cause = seg.err
		}
	}
	if cause == nil {
		cause = ctxErr
	}
	if cause == nil {
		cause = anyErr
	}
	if cause == nil {
		return nil
	}
	e := &Aborted{Cause: cause, Segments: make([]SegmentProgress, 0, len(segs))}
	for _, seg := range segs {
		e.Segments = append(e.Segments, SegmentProgress{
			Index:  seg.Index,
			Start:  seg.Start,
			End:    seg.End,
			Pos:    seg.progress(),
			Rounds: seg.Rounds,
		})
	}
	return e
}

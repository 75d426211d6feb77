package pap

import (
	"context"
	"errors"

	"pap/internal/engine"
)

// ErrStreamClosed is returned by Stream.WriteContext after Close.
var ErrStreamClosed = errors.New("pap: stream closed")

// Stream matches an automaton against input arriving incrementally —
// network captures, log tails, anything that cannot be buffered whole.
// Offsets are global across all written chunks. A Stream corresponds to
// one AP flow processing an unbounded symbol sequence; it uses the
// sequential engine (segment-parallel matching needs the whole input for
// range-guided partitioning).
//
//	s := a.NewStream()
//	for chunk := range chunks {
//	    for _, m := range s.Write(chunk) {
//	        handle(m)
//	    }
//	}
type Stream struct {
	a    *Automaton
	kind EngineKind
	// cur is the one cursor the stream's writes advance, kept across them:
	// its skips are exact per byte (a stream never takes the literal
	// tier), so chunk boundaries need no special handling.
	cur    engine.Cursor
	offset int64
	// scratch accumulates the current chunk's matches and reports
	// accumulates its raw report events; both are reused across Write
	// calls, and emit is allocated once here, so steady-state writes
	// allocate nothing.
	scratch []Match
	reports []engine.Report
	emit    engine.EmitFunc
	closed  bool
	// scored: the engine tracks best-path scores (see WithScoring). The
	// score vector lives in the engine alongside the frontier, so scores
	// carry across Write calls exactly like enabled states do — a match
	// whose path straddles any number of chunk boundaries scores
	// identically to the same input matched in one piece.
	scored bool
	// best/bestValid track the maximum match score seen since creation or
	// Reset (valid flag, not a sentinel: scores may be negative).
	best      int64
	bestValid bool
}

// StreamOption configures NewStream.
type StreamOption func(*Stream)

// WithEngine selects the stream's execution backend (default EngineAuto).
func WithEngine(k EngineKind) StreamOption {
	return func(s *Stream) { s.kind = k }
}

// WithScoring forces per-transition score tracking even when the automaton
// carries no scored transitions (every score is then 0 — useful for
// ablation and conformance testing). Streams over scored automata
// (Builder.ConnectScored) always track, with or without this option.
// Scoring remaps EngineLazyDFA and EngineMeta to EngineAuto — those
// backends do not track scores — which also drops the prefilter that rides
// on EngineMeta.
func WithScoring() StreamOption {
	return func(s *Stream) { s.scored = true }
}

// NewStream returns a matcher positioned at input offset 0.
func (a *Automaton) NewStream(opts ...StreamOption) *Stream {
	s := &Stream{a: a, kind: EngineAuto}
	for _, opt := range opts {
		opt(s)
	}
	if a.n.Scored() {
		s.scored = true
	}
	s.emit = func(r engine.Report) { s.reports = append(s.reports, r) }
	s.newEngine()
	return s
}

// newEngine (re)positions the stream's cursor, with the engine and the
// skip its kind calls for, at the start configuration.
func (s *Stream) newEngine() {
	var tab *engine.Tables
	if s.kind != EngineSparse {
		tab = s.a.tables()
	}
	s.cur = engine.NewWithOpts(s.kind.toKind(), s.a.n, tab, engine.RunOpts{Scored: s.scored})
	s.cur.Emit = s.emit
}

// collect dedupes the accumulated raw reports into scratch and folds them
// into the running best score.
func (s *Stream) collect() []Match {
	for _, r := range engine.DedupeReports(s.reports) {
		s.scratch = append(s.scratch, Match{Code: r.Code, Offset: r.Offset, Score: r.Score})
		if !s.bestValid || r.Score > s.best {
			s.best, s.bestValid = r.Score, true
		}
	}
	return s.scratch
}

// Write consumes the next chunk and returns the matches it completed, in
// order. The returned slice is reused by the next Write; copy it to
// retain. Matches are deduplicated per (offset, reporting state) within
// the chunk, like AP report events — and this is exactly the whole-input
// Match semantics, regardless of how the input is chunked: the sequential
// engine fires each enabled state at most once per symbol, so a given
// (offset, state) event is emitted by exactly one Step inside exactly one
// Write, and no deduplication opportunity can straddle a chunk boundary.
// (Two distinct reporting states carrying the same code still yield two
// matches at the same offset, in Match and Write alike.)
// Writing to a closed Stream is a no-op returning nil (use WriteContext
// for an explicit ErrStreamClosed).
func (s *Stream) Write(chunk []byte) []Match {
	ms, _ := s.WriteContext(context.Background(), chunk)
	return ms
}

// WriteContext is Write under a context: ctx is polled before the chunk's
// first symbol and every engine.CtxCheckEvery symbols after, and a cancelled or
// expired ctx stops mid-chunk with ctx's error wrapped in *AbortError
// (Progress reports the global stream offsets covered by this chunk and
// the position reached). Symbols before the stop are consumed — Offset
// advances — and their matches are returned alongside the error, so a
// caller that retries resumes exactly after the last processed symbol.
// Writing to a closed stream returns ErrStreamClosed.
func (s *Stream) WriteContext(ctx context.Context, chunk []byte) ([]Match, error) {
	if s.closed {
		return nil, ErrStreamClosed
	}
	start := s.offset
	s.scratch = s.scratch[:0]
	s.reports = s.reports[:0]
	s.cur.Feed(chunk, 0, start)
	err := s.cur.Advance(ctx, len(chunk))
	s.offset = start + int64(s.cur.Pos())
	s.collect()
	if err != nil {
		return s.scratch, &AbortError{
			Cause: err,
			Progress: []SegmentProgress{{
				Index: 0,
				Start: int(start),
				End:   int(start) + len(chunk),
				Pos:   int(s.offset),
			}},
		}
	}
	return s.scratch, nil
}

// Close releases the stream: subsequent Write calls return nil and
// WriteContext returns ErrStreamClosed. Close is idempotent and always
// returns nil (the error return mirrors io.Closer). Reset reopens a
// closed stream.
func (s *Stream) Close() error {
	s.closed = true
	return nil
}

// Offset returns the number of bytes consumed so far.
func (s *Stream) Offset() int64 { return s.offset }

// ActiveStates returns the number of currently enabled states beyond the
// always-active baseline — a load indicator for monitoring.
func (s *Stream) ActiveStates() int { return s.cur.Engine().FrontierLen() }

// Engine returns the stream's configured backend.
func (s *Stream) Engine() EngineKind { return s.kind }

// Scored reports whether the stream tracks per-transition scores
// (WithScoring, or an automaton with scored transitions).
func (s *Stream) Scored() bool { return s.scored }

// BestScore returns the maximum Match.Score seen since creation or the
// last Reset and whether any match has been seen at all — scores may be
// negative, so the boolean (not 0) is the no-matches signal. On unscored
// streams every score is 0, so it degenerates to a has-matched indicator.
func (s *Stream) BestScore() (int64, bool) { return s.best, s.bestValid }

// PrefilterSkipped returns the number of input bytes the stream's
// prefilter proved inert and never stepped (0 unless the backend carries
// a prefilter, i.e. EngineMeta over a ruleset with a narrow start class).
func (s *Stream) PrefilterSkipped() int64 { return s.cur.PrefilterSkipped }

// BaselineSkipped returns the number of input bytes the exact baseline
// skip scanned past instead of stepping (0 for backends without it, and
// for rulesets whose start class is too wide to ever skip). Unlike the
// prefilter this path preserves every observable.
func (s *Stream) BaselineSkipped() int64 { return s.cur.BaselineSkipped }

// EngineInfo returns the stream's cumulative backend observability
// counters since creation or the last Reset.
func (s *Stream) EngineInfo() EngineInfo {
	return infoOf(s.cur.Engine().Stats(), s.cur.PrefilterSkipped, s.cur.BaselineSkipped)
}

// Reset rewinds the stream to offset 0 and the start configuration,
// reopening it if it was closed.
func (s *Stream) Reset() {
	s.newEngine()
	s.offset = 0
	s.scratch = s.scratch[:0]
	s.closed = false
	s.best, s.bestValid = 0, false
}

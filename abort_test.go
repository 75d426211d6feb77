package pap

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// cancelAfterPolls is a context whose Err turns non-nil after a fixed
// number of Err calls — a deterministic way to stop WriteContext mid-chunk
// without wall-clock races (the stream only ever consults Err).
type cancelAfterPolls struct {
	context.Context
	left int
}

func (c *cancelAfterPolls) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestStreamWriteAfterClose(t *testing.T) {
	a, err := Compile("t", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewStream()
	s.Write([]byte("nee"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ms := s.Write([]byte("dle")); ms != nil {
		t.Fatalf("Write after Close returned %v", ms)
	}
	if s.Offset() != 3 {
		t.Fatalf("closed stream advanced to %d", s.Offset())
	}
	if _, err := s.WriteContext(context.Background(), []byte("dle")); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("WriteContext after Close: %v, want ErrStreamClosed", err)
	}
}

func TestStreamDoubleClose(t *testing.T) {
	a, err := Compile("t", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewStream()
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestStreamResetReopens(t *testing.T) {
	a, err := Compile("t", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewStream()
	s.Write([]byte("needle"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	ms := s.Write([]byte("xneedle"))
	if len(ms) != 1 || ms[0].Offset != 6 {
		t.Fatalf("reopened stream matches = %+v", ms)
	}
}

func TestStreamWriteContextStopsMidChunk(t *testing.T) {
	a, err := Compile("t", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewStream()
	chunk := make([]byte, 10000)
	copy(chunk, "needle") // a match inside the consumed prefix
	// Two successful polls (offsets 0 and 4096), then cancelled: exactly
	// 8192 symbols are consumed.
	ctx := &cancelAfterPolls{Context: context.Background(), left: 2}
	ms, err := s.WriteContext(ctx, chunk)
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
	}
	if s.Offset() != 8192 {
		t.Fatalf("offset = %d, want 8192", s.Offset())
	}
	if len(ms) != 1 || ms[0].Offset != 5 {
		t.Fatalf("partial matches = %+v, want the one at 5", ms)
	}
	if len(ab.Progress) != 1 {
		t.Fatalf("progress = %+v", ab.Progress)
	}
	if p := ab.Progress[0]; p.Start != 0 || p.End != 10000 || p.Pos != 8192 {
		t.Fatalf("progress = %+v", p)
	}
	// A retry with the unconsumed tail resumes seamlessly.
	if _, err := s.WriteContext(context.Background(), chunk[8192:]); err != nil {
		t.Fatalf("resume write: %v", err)
	}
	if s.Offset() != 10000 {
		t.Fatalf("offset after resume = %d", s.Offset())
	}
}

func TestMatchContextCancelled(t *testing.T) {
	a, err := Compile("t", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := make([]byte, 1<<16)
	ms, _, err := a.MatchWithInfoContext(ctx, input, EngineAuto)
	if ms != nil {
		t.Fatalf("matches = %v alongside error", ms)
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
	}
	if len(ab.Progress) != 1 || ab.Progress[0].End != len(input) {
		t.Fatalf("progress = %+v", ab.Progress)
	}
}

func TestMatchContextCompletes(t *testing.T) {
	a, err := Compile("t", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := a.MatchWithInfoContext(context.Background(), []byte("a needle here"), EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %+v", ms)
	}
}

func TestMatchParallelContextCancelled(t *testing.T) {
	a, err := Compile("t", []string{"ab", "cd"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	input := make([]byte, 1<<16)
	for i := range input {
		input[i] = "abcd  \n"[rng.Intn(7)]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := a.MatchParallelContext(ctx, input, DefaultConfig(1))
	if rep != nil {
		t.Fatalf("report = %v alongside error", rep)
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
	}
}

func TestMatchParallelContextDeadline(t *testing.T) {
	a, err := Compile("t", []string{"ab", "cd"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	input := make([]byte, 1<<20)
	for i := range input {
		input[i] = "abcd  \n"[rng.Intn(7)]
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = a.MatchParallelContext(ctx, input, DefaultConfig(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not wrap context.DeadlineExceeded", err)
	}
}

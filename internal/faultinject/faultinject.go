// Package faultinject is the deterministic chaos layer of the execution
// pipeline: a seedable set of faults — delays, failures, panics — armed at
// specific pipeline points (plan build, round boundaries, FIV transfers,
// truth publication, SFA boundary composition, the golden run's cuts) and
// injected into internal/core via Config.Fault.
//
// Everything is deterministic in *modelled* execution: a fault fires at a
// (stage, segment, round) coordinate, never at a wall-clock time, so the
// same seed replays the same failure regardless of scheduler interleaving
// or machine speed. The chaos test suite (internal/core/chaos_test.go) and
// the conformance cancellation invariant are built on this package.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Stage identifies one instrumented point of the execution pipeline.
type Stage uint8

const (
	// PlanBuild fires once at the start of pre-processing (core.NewPlan),
	// with Segment and Round both -1.
	PlanBuild Stage = iota
	// RoundStep fires at the top of every TDM round of every segment,
	// before any cancellation check — the paper's flow context-switch
	// boundary, which is also where the scheduler polls its context.
	RoundStep
	// FIVTransfer fires when a segment is about to apply the Flow
	// Invalidation Vector from its predecessor (in-loop or deferred).
	FIVTransfer
	// TruthPublish fires when a finished segment publishes its boundary
	// truth to its successor (core.chainSegment), with Round -1.
	TruthPublish
	// SFACompose fires in SFA mode's boundary-composition pass, once per
	// composed segment (the segment whose unit truth is being derived),
	// with Round -1. Flow-mode runs never reach it.
	SFACompose
	// GoldenBoundary fires each time the golden execution passes a cut,
	// before the boundary is published to the segments — on the golden
	// run's goroutine when it runs beside them. Segment is the segment
	// starting at the cut (so never 0), Round is -1.
	GoldenBoundary

	numStages
)

var stageNames = [...]string{"plan-build", "round-step", "fiv-transfer", "truth-publish", "sfa-compose", "golden-boundary"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Action is what a fault does when its point is reached.
type Action uint8

const (
	// Fail makes the stage return Fault.Err (ErrInjected when nil); the
	// run aborts with that error wrapped in the usual progress report.
	Fail Action = iota
	// Panic panics with an *InjectedPanic carrying the set's seed; the
	// segment-boundary recovery in core converts it into an error.
	Panic
	// Delay sleeps Fault.Sleep of real time, then continues. Combined
	// with a context deadline this simulates slow stages being killed.
	Delay

	numActions
)

var actionNames = [...]string{"fail", "panic", "delay"}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Point is one reached pipeline coordinate. Segment is -1 for stages
// outside any segment; Round is -1 for stages outside the round loop.
type Point struct {
	Stage   Stage
	Segment int
	Round   int
}

func (p Point) String() string {
	return fmt.Sprintf("%s seg %d round %d", p.Stage, p.Segment, p.Round)
}

// Hook is the callback internal/core fires at every instrumented point
// (core.Config.Fault). A nil Hook means no fault injection; a non-nil
// error aborts the run; panics propagate to the recovery boundary of the
// segment, or of the golden run, that reached the point.
type Hook func(Point) error

// Fault arms one action at every point matching its coordinates.
type Fault struct {
	Stage   Stage
	Segment int // -1 matches any segment
	Round   int // -1 matches any round
	Action  Action
	Sleep   time.Duration // Delay only (0 = 100µs)
	Err     error         // Fail only (nil = ErrInjected)
	Once    bool          // disarm after the first firing
}

func (f Fault) matches(p Point) bool {
	return f.Stage == p.Stage &&
		(f.Segment < 0 || f.Segment == p.Segment) &&
		(f.Round < 0 || f.Round == p.Round)
}

// ErrInjected is the default error of Fail faults.
var ErrInjected = errors.New("faultinject: injected failure")

// InjectedPanic is the value Panic faults panic with; it carries the seed
// that reproduces the crash, so recovery boundaries surface it.
type InjectedPanic struct {
	Seed  int64
	Point Point
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (seed %d)", p.Point, p.Seed)
}

func (p *InjectedPanic) Error() string { return p.String() }

// Set is an armed collection of faults. Its Hook method is safe for
// concurrent use from every segment goroutine of a run, and a nil *Set
// injects nothing, so callers can pass (*Set)(nil).Hook unconditionally.
type Set struct {
	seed int64

	mu     sync.Mutex
	faults []Fault
	spent  []bool  // Once faults that already fired
	fired  []Point // log of every point that triggered a fault
}

// New arms an explicit fault list (seed 0: hand-built, not generated).
func New(faults ...Fault) *Set {
	return &Set{faults: faults, spent: make([]bool, len(faults))}
}

// NewSeeded deterministically draws n faults from the seed: random stages
// (biased toward the round loop, where most execution time lives), small
// segment/round coordinates, all actions, sub-millisecond delays. The same
// (seed, n) always arms the same faults — the replay key for chaos runs.
func NewSeeded(seed int64, n int) *Set {
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, n)
	for i := range faults {
		f := Fault{
			Segment: rng.Intn(5) - 1, // -1..3
			Round:   rng.Intn(7) - 1, // -1..5
			Action:  Action(rng.Intn(int(numActions))),
			Sleep:   time.Duration(50+rng.Intn(450)) * time.Microsecond,
			Once:    rng.Intn(4) != 0,
		}
		// Bias: half the faults land on RoundStep, the rest spread evenly.
		if rng.Intn(2) == 0 {
			f.Stage = RoundStep
		} else {
			f.Stage = Stage(rng.Intn(int(numStages)))
		}
		if f.Stage == PlanBuild || f.Stage == TruthPublish || f.Stage == SFACompose || f.Stage == GoldenBoundary {
			f.Round = -1
		}
		if f.Stage == PlanBuild {
			f.Segment = -1
		}
		faults[i] = f
	}
	return &Set{seed: seed, faults: faults, spent: make([]bool, n)}
}

// Seed returns the generation seed (0 for hand-built sets).
func (s *Set) Seed() int64 {
	if s == nil {
		return 0
	}
	return s.seed
}

// Fired returns a copy of the log of points that triggered a fault, in
// firing order.
func (s *Set) Fired() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.fired...)
}

// String describes the set compactly (included in recovery errors).
func (s *Set) String() string {
	if s == nil {
		return "faultinject: none"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("faultinject: seed %d, %d faults, %d fired", s.seed, len(s.faults), len(s.fired))
}

// Hook is the Set's fault-firing callback; pass it as core.Config.Fault.
// The first armed fault matching the point fires (Fail and Panic end the
// stage immediately; a Delay sleeps and then lets later faults match).
func (s *Set) Hook(p Point) error {
	if s == nil {
		return nil
	}
	for {
		s.mu.Lock()
		idx := -1
		for i, f := range s.faults {
			if !s.spent[i] && f.matches(p) {
				idx = i
				break
			}
		}
		if idx == -1 {
			s.mu.Unlock()
			return nil
		}
		f := s.faults[idx]
		if f.Once {
			s.spent[idx] = true
		}
		s.fired = append(s.fired, p)
		seed := s.seed
		s.mu.Unlock()

		switch f.Action {
		case Fail:
			if f.Err != nil {
				return fmt.Errorf("%s: %w", p, f.Err)
			}
			return fmt.Errorf("%s: %w", p, ErrInjected)
		case Panic:
			panic(&InjectedPanic{Seed: seed, Point: p})
		case Delay:
			d := f.Sleep
			if d <= 0 {
				d = 100 * time.Microsecond
			}
			time.Sleep(d)
			if !f.Once {
				// A persistent delay would loop forever here; it has done
				// its sleeping for this point.
				return nil
			}
			// A Once delay is spent; fall through to let another armed
			// fault (e.g. a Fail at the same point) match too.
		}
	}
}

package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilSetInjectsNothing(t *testing.T) {
	var s *Set
	if err := s.Hook(Point{Stage: RoundStep}); err != nil {
		t.Fatalf("nil set fired: %v", err)
	}
	if s.Seed() != 0 || s.Fired() != nil {
		t.Fatal("nil set reports state")
	}
	if s.String() != "faultinject: none" {
		t.Fatalf("nil set String = %q", s.String())
	}
}

func TestMatching(t *testing.T) {
	s := New(Fault{Stage: RoundStep, Segment: 1, Round: 3, Action: Fail})
	for _, p := range []Point{
		{Stage: RoundStep, Segment: 0, Round: 3},
		{Stage: RoundStep, Segment: 1, Round: 2},
		{Stage: FIVTransfer, Segment: 1, Round: 3},
	} {
		if err := s.Hook(p); err != nil {
			t.Errorf("fired at non-matching %v: %v", p, err)
		}
	}
	hit := Point{Stage: RoundStep, Segment: 1, Round: 3}
	if err := s.Hook(hit); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching point: err = %v, want ErrInjected", err)
	}
	if got := s.Fired(); len(got) != 1 || got[0] != hit {
		t.Fatalf("Fired = %v", got)
	}
}

func TestWildcardsAndOnce(t *testing.T) {
	s := New(Fault{Stage: RoundStep, Segment: -1, Round: -1, Action: Fail, Once: true})
	if err := s.Hook(Point{Stage: RoundStep, Segment: 7, Round: 99}); !errors.Is(err, ErrInjected) {
		t.Fatalf("wildcard miss: %v", err)
	}
	if err := s.Hook(Point{Stage: RoundStep, Segment: 7, Round: 99}); err != nil {
		t.Fatalf("Once fault fired twice: %v", err)
	}
}

func TestCustomError(t *testing.T) {
	mine := errors.New("boom")
	s := New(Fault{Stage: TruthPublish, Segment: -1, Round: -1, Action: Fail, Err: mine})
	err := s.Hook(Point{Stage: TruthPublish, Segment: 2, Round: -1})
	if !errors.Is(err, mine) {
		t.Fatalf("err = %v, want wrapping %v", err, mine)
	}
}

func TestPanicCarriesSeed(t *testing.T) {
	s := NewSeeded(42, 0)
	// Arm a panic by hand on the seeded set's identity.
	s.faults = append(s.faults, Fault{Stage: PlanBuild, Segment: -1, Round: -1, Action: Panic})
	s.spent = append(s.spent, false)
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok {
			t.Fatalf("panicked with %T %v", r, r)
		}
		if ip.Seed != 42 {
			t.Fatalf("panic seed %d, want 42", ip.Seed)
		}
		if ip.Point.Stage != PlanBuild {
			t.Fatalf("panic point %v", ip.Point)
		}
	}()
	_ = s.Hook(Point{Stage: PlanBuild, Segment: -1, Round: -1})
	t.Fatal("hook returned instead of panicking")
}

func TestDelayThenFailAtSamePoint(t *testing.T) {
	s := New(
		Fault{Stage: RoundStep, Segment: -1, Round: -1, Action: Delay, Sleep: time.Microsecond, Once: true},
		Fault{Stage: RoundStep, Segment: -1, Round: -1, Action: Fail},
	)
	// The Once delay is spent and the hook keeps matching: the fail fires
	// at the same point.
	if err := s.Hook(Point{Stage: RoundStep, Segment: 0, Round: 0}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected after the spent delay", err)
	}
	if got := s.Fired(); len(got) != 2 {
		t.Fatalf("fired %d points, want 2 (delay, then fail)", len(got))
	}
}

func TestPersistentDelayReturns(t *testing.T) {
	s := New(Fault{Stage: RoundStep, Segment: -1, Round: -1, Action: Delay, Sleep: time.Microsecond})
	if err := s.Hook(Point{Stage: RoundStep, Segment: 0, Round: 0}); err != nil {
		t.Fatalf("persistent delay errored: %v", err)
	}
	if err := s.Hook(Point{Stage: RoundStep, Segment: 0, Round: 1}); err != nil {
		t.Fatalf("persistent delay errored on refire: %v", err)
	}
	if got := s.Fired(); len(got) != 2 {
		t.Fatalf("fired %d points, want 2", len(got))
	}
}

func TestSeededDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := NewSeeded(seed, 4), NewSeeded(seed, 4)
		if len(a.faults) != len(b.faults) {
			t.Fatalf("seed %d: %d vs %d faults", seed, len(a.faults), len(b.faults))
		}
		for i := range a.faults {
			if a.faults[i] != b.faults[i] {
				t.Fatalf("seed %d fault %d: %+v vs %+v", seed, i, a.faults[i], b.faults[i])
			}
		}
		if a.Seed() != seed {
			t.Fatalf("Seed() = %d", a.Seed())
		}
	}
}

func TestSeededShapes(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		for _, f := range NewSeeded(seed, 5).faults {
			if f.Stage >= numStages || f.Action >= numActions {
				t.Fatalf("seed %d: out-of-range fault %+v", seed, f)
			}
			if f.Stage == PlanBuild && (f.Segment != -1 || f.Round != -1) {
				t.Fatalf("seed %d: plan-build fault with coordinates %+v", seed, f)
			}
			if (f.Stage == TruthPublish || f.Stage == GoldenBoundary) && f.Round != -1 {
				t.Fatalf("seed %d: %s fault with a round %+v", seed, f.Stage, f)
			}
			if f.Sleep <= 0 || f.Sleep >= time.Millisecond {
				t.Fatalf("seed %d: sleep %v out of the sub-millisecond band", seed, f.Sleep)
			}
		}
	}
}

// TestHookConcurrency hammers one set from many goroutines (run under
// -race): the mutex must keep the armed/spent/fired state consistent, and
// a Once fault must fire exactly once across all of them.
func TestHookConcurrency(t *testing.T) {
	s := New(Fault{Stage: RoundStep, Segment: -1, Round: -1, Action: Fail, Once: true})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				if err := s.Hook(Point{Stage: RoundStep, Segment: g, Round: r}); err != nil {
					mu.Lock()
					fails++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if fails != 1 {
		t.Fatalf("Once fault fired %d times across goroutines", fails)
	}
	if got := s.Fired(); len(got) != 1 {
		t.Fatalf("fired log has %d entries", len(got))
	}
}

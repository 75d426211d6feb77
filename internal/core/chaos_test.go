package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"pap/internal/faultinject"
)

// chaosConfig is a run shape that exercises every fault stage: several
// segments (so FIV transfers and truth publications happen), a small TDM
// quantum (so every segment runs many rounds), both schedulers.
func chaosConfig(parallel bool) Config {
	cfg := DefaultConfig(1)
	cfg.Workers = 2
	cfg.MaxSegments = 4
	cfg.TDMQuantum = 8
	cfg.SegmentParallel = parallel
	return cfg
}

// waitGoroutines fails the test if the goroutine count has not drained
// back to the baseline (plus slack for runtime helpers) within 2s.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkAbortProgress asserts the per-segment progress attached to an abort
// is internally consistent.
func checkAbortProgress(t *testing.T, err error) {
	t.Helper()
	var ab *Aborted
	if !errors.As(err, &ab) {
		return // plan-build faults abort before any segment exists
	}
	for _, p := range ab.Segments {
		if p.Start > p.Pos || p.Pos > p.End || p.Start > p.End {
			t.Errorf("segment progress out of range: %+v", p)
		}
		if p.Rounds < 0 {
			t.Errorf("negative rounds: %+v", p)
		}
	}
}

// TestChaosStages injects every action at every pipeline stage, under both
// schedulers, and asserts the documented failure contract: a clean error
// carrying the injected cause (or the deadline, for delays), a nil result,
// and no goroutine left behind.
func TestChaosStages(t *testing.T) {
	nfa := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(7))
	input := genInput(rng, 8192, []string{"abc", "xyz"})

	// FIV transfers only happen when enumeration flows are still alive at
	// the modelled arrival time, so that stage gets the workload from
	// TestFIVKillsFalseFlows: open-ended patterns, FIV as the only flow
	// killer, a forced cut symbol with a non-empty range.
	fivNFA := mustCompile(t, "Xab.*y", "Xcd.*y")
	fivInput := make([]byte, 1<<15)
	for i := range fivInput {
		fivInput[i] = "Xabcdy  "[rng.Intn(8)]
	}

	stages := []faultinject.Stage{
		faultinject.PlanBuild,
		faultinject.RoundStep,
		faultinject.FIVTransfer,
		faultinject.TruthPublish,
		faultinject.SFACompose,
		faultinject.GoldenBoundary,
	}
	actions := []faultinject.Action{faultinject.Fail, faultinject.Panic, faultinject.Delay}

	baseline := runtime.NumGoroutine()
	for _, parallel := range []bool{false, true} {
		for _, stage := range stages {
			for _, action := range actions {
				name := stage.String() + "/" + action.String()
				if parallel {
					name += "/parallel"
				} else {
					name += "/serial"
				}
				t.Run(name, func(t *testing.T) {
					set := faultinject.New(faultinject.Fault{
						Stage:   stage,
						Segment: -1,
						Round:   -1,
						Action:  action,
						Sleep:   2 * time.Millisecond,
						Once:    action != faultinject.Delay,
					})
					cfg := chaosConfig(parallel)
					cfg.Fault = set.Hook
					n, in := nfa, input
					if stage == faultinject.FIVTransfer {
						n, in = fivNFA, fivInput
						cfg.DisableConvergence = true
						cfg.DisableDeactivation = true
						cfg.CutSymbol = 'X'
					}
					if stage == faultinject.SFACompose {
						// The boundary-composition pass only exists in
						// SFA mode.
						cfg.Mode = ModeSFA
					}

					ctx := context.Background()
					var cancel context.CancelFunc
					if action == faultinject.Delay {
						// A persistent delay alone never fails the run; pair
						// it with a deadline the repeated sleeps must blow.
						ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
						defer cancel()
					}
					res, err := RunContext(ctx, NewStatic(n, nil), in, cfg)

					if err == nil {
						if action != faultinject.Delay {
							t.Fatalf("run succeeded despite %s fault (fired: %v)", action, set.Fired())
						}
						// Delay at a stage the run never reached (e.g. a
						// plan-build delay is brief) may still finish in time.
						if res == nil {
							t.Fatal("nil result with nil error")
						}
						return
					}
					if res != nil {
						t.Fatalf("non-nil result alongside error %v", err)
					}
					if len(set.Fired()) == 0 && action != faultinject.Delay {
						// (A delay run can hit its deadline before the
						// instrumented stage is ever reached.)
						t.Fatalf("error %v but no fault fired", err)
					}
					checkAbortProgress(t, err)
					switch action {
					case faultinject.Fail:
						if !errors.Is(err, faultinject.ErrInjected) {
							t.Fatalf("error %v does not wrap ErrInjected", err)
						}
					case faultinject.Panic:
						if !strings.Contains(err.Error(), "panic") {
							t.Fatalf("error %v does not mention the panic", err)
						}
					case faultinject.Delay:
						if !errors.Is(err, context.DeadlineExceeded) {
							t.Fatalf("error %v is not the deadline", err)
						}
					}
				})
			}
		}
	}
	waitGoroutines(t, baseline)
}

// TestChaosSeeded sweeps seeded random fault sets — 500 of them in full
// mode, exercising arbitrary combinations of delays, failures and panics
// across both schedulers — and asserts the run always ends in one of the
// two legal outcomes: a correct result, or a nil result with a
// well-formed abort error. Every scenario is reproducible from its seed.
func TestChaosSeeded(t *testing.T) {
	scenarios := 500
	if testing.Short() {
		scenarios = 60
	}
	nfa := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(11))
	input := genInput(rng, 4096, []string{"abc", "xyz"})

	baseline := runtime.NumGoroutine()
	for seed := int64(1); seed <= int64(scenarios); seed++ {
		set := faultinject.NewSeeded(seed, 3)
		cfg := chaosConfig(seed%2 == 0)
		cfg.TDMQuantum = 16
		if seed%3 == 0 {
			// A third of the scenarios run SFA mode, so seeded faults
			// (including the sfa-compose stage NewSeeded can draw) land on
			// the composition path too.
			cfg.Mode = ModeSFA
		}
		cfg.Fault = set.Hook

		// The deadline bounds scenarios dominated by persistent delays;
		// hitting it is a legal outcome, not a failure.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		res, err := RunContext(ctx, NewStatic(nfa, nil), input, cfg)
		cancel()

		switch {
		case err == nil:
			if res == nil {
				t.Fatalf("seed %d: nil result with nil error", seed)
			}
			if err := res.CheckCorrect(); err != nil {
				t.Fatalf("seed %d: surviving run incorrect: %v", seed, err)
			}
		default:
			if res != nil {
				t.Fatalf("seed %d: non-nil result alongside error %v", seed, err)
			}
			var ab *Aborted
			legal := errors.As(err, &ab) ||
				errors.Is(err, faultinject.ErrInjected) ||
				errors.Is(err, context.DeadlineExceeded)
			if !legal {
				t.Fatalf("seed %d: unexpected error shape: %v", seed, err)
			}
			checkAbortProgress(t, err)
		}
	}
	waitGoroutines(t, baseline)
}

// TestChaosCancelMidRun cancels a run from the outside mid-flight and
// asserts the context error comes back wrapped with progress, under both
// schedulers, with no goroutines left behind.
func TestChaosCancelMidRun(t *testing.T) {
	nfa := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(13))
	input := genInput(rng, 8192, []string{"abc", "xyz"})

	baseline := runtime.NumGoroutine()
	for _, parallel := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := chaosConfig(parallel)
		// Cancel from inside the pipeline at a deterministic modelled point
		// so the test does not depend on wall-clock racing.
		cfg.Fault = func(p faultinject.Point) error {
			if p.Stage == faultinject.RoundStep && p.Round == 2 {
				cancel()
			}
			return nil
		}
		res, err := RunContext(ctx, NewStatic(nfa, nil), input, cfg)
		cancel()
		if err == nil {
			t.Fatalf("parallel=%v: run survived cancellation", parallel)
		}
		if res != nil {
			t.Fatalf("parallel=%v: non-nil result alongside %v", parallel, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: error %v does not wrap context.Canceled", parallel, err)
		}
		var ab *Aborted
		if !errors.As(err, &ab) {
			t.Fatalf("parallel=%v: error %v is not *Aborted", parallel, err)
		}
		checkAbortProgress(t, err)
	}
	waitGoroutines(t, baseline)
}

// TestChaosCancelGoldenMidInput cancels the caller's context at the one
// moment only the parallel scheduler has: every segment has finished and
// the golden run, beside them, is still mid-input. The hook holds the
// golden run at its first cut until the last segment publishes its truth
// (no FIV, so no segment needs a boundary before then), cancels, and lets
// it go on to its next poll. The documented outcome (docs/ROBUSTNESS.md):
// no result — an unfinished golden run verifies nothing — and an abort
// whose cause is the golden run's context error, naming how far it got,
// over segments that all report full progress.
func TestChaosCancelGoldenMidInput(t *testing.T) {
	nfa := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(19))
	input := genInput(rng, 1<<15, []string{"abc", "xyz"})

	baseline := runtime.NumGoroutine()
	for _, mode := range []Mode{ModeFlows, ModeSFA} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := chaosConfig(true)
		cfg.Mode = mode
		cfg.DisableFIV = true
		segmentsDone := make(chan struct{})
		cfg.Fault = func(p faultinject.Point) error {
			switch {
			case p.Stage == faultinject.TruthPublish && p.Segment == cfg.MaxSegments-1:
				close(segmentsDone)
			case p.Stage == faultinject.GoldenBoundary && p.Segment == 1:
				<-segmentsDone
				cancel()
			}
			return nil
		}
		res, err := RunContext(ctx, NewStatic(nfa, nil), input, cfg)
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: result %v, error %v; want no result and context.Canceled", mode, res, err)
		}
		if !strings.Contains(err.Error(), "golden execution at byte") {
			t.Fatalf("%v: error %v does not say where the golden run stopped", mode, err)
		}
		var ab *Aborted
		if !errors.As(err, &ab) || len(ab.Segments) != cfg.MaxSegments {
			t.Fatalf("%v: error %v does not carry every segment's progress", mode, err)
		}
		for _, p := range ab.Segments {
			if p.Pos != p.End {
				t.Fatalf("%v: segment %d reports %d of %d..%d, want finished", mode, p.Index, p.Pos, p.Start, p.End)
			}
		}
		checkAbortProgress(t, err)
	}
	waitGoroutines(t, baseline)
}

// TestChaosReplayDeterminism replays a failing seeded scenario and asserts
// the same fault fires at the same modelled coordinates: the replay
// contract that makes chaos failures debuggable.
func TestChaosReplayDeterminism(t *testing.T) {
	nfa := mustCompile(t, "abc", "abd", "xyz")
	rng := rand.New(rand.NewSource(17))
	input := genInput(rng, 4096, []string{"abc", "xyz"})

	run := func(seed int64) (error, []faultinject.Point) {
		set := faultinject.NewSeeded(seed, 3)
		cfg := chaosConfig(false) // serial scheduler: fully deterministic firing order
		cfg.TDMQuantum = 16
		cfg.Fault = set.Hook
		_, err := Run(nfa, input, cfg)
		return err, set.Fired()
	}
	for seed := int64(1); seed <= 40; seed++ {
		err1, fired1 := run(seed)
		err2, fired2 := run(seed)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: outcome diverged: %v vs %v", seed, err1, err2)
		}
		if len(fired1) != len(fired2) {
			t.Fatalf("seed %d: fired %d points, then %d", seed, len(fired1), len(fired2))
		}
		for i := range fired1 {
			if fired1[i] != fired2[i] {
				t.Fatalf("seed %d: firing %d diverged: %v vs %v", seed, i, fired1[i], fired2[i])
			}
		}
	}
}

package conformance

import (
	"flag"
	"testing"
	"time"

	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/nfa"
)

var (
	flagSeed = flag.Int64("conformance.seed", 1,
		"base seed of the conformance sweep")
	flagCases = flag.Int("conformance.cases", 0,
		"number of generated cases (0 = 1000 in -short mode, 2000 otherwise)")
	flagCase = flag.Int64("conformance.case", 0,
		"replay exactly one case by its seed (as printed in a failure report)")
)

// TestConformance is the randomized metamorphic sweep: every generated
// (automaton, input) case must satisfy every invariant — oracle ≡
// sequential Run ≡ boundary/segment-resume runs for k ∈ {2,3,7,16} ≡ all
// three engines ≡ chunked streaming ≡ the PAP parallelization under its
// ablation toggles. A failure prints a shrunk NFA + input and a one-line
// repro seed.
//
// Replay one case:   go test ./internal/conformance -run TestConformance -conformance.case=SEED
// Bigger sweep:      go test ./internal/conformance -run TestConformance -conformance.cases=50000
func TestConformance(t *testing.T) {
	if *flagCase != 0 {
		f, err := RunOne(*flagCase, true)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			t.Fatalf("case %d:\n%s", f.Seed, f)
		}
		return
	}
	cases := *flagCases
	if cases == 0 {
		cases = 2000
		if testing.Short() {
			cases = 1000
		}
	}
	start := time.Now()
	sum := Run(Options{
		Seed:  *flagSeed,
		Cases: cases,
		Progress: func(done, total int) {
			t.Logf("conformance: %d/%d cases (%.1fs)", done, total, time.Since(start).Seconds())
		},
	})
	for i := range sum.Failures {
		t.Errorf("case %d:\n%s", sum.Failures[i].Seed, &sum.Failures[i])
	}
	if sum.Cases < cases && len(sum.Failures) == 0 {
		t.Errorf("sweep stopped after %d/%d cases without failures", sum.Cases, cases)
	}
	t.Logf("conformance: %d cases, %d failures in %v", sum.Cases, len(sum.Failures), time.Since(start))
}

// TestSweepCoversBothRepresentations keeps the differential net under the
// Adaptive engine: ordinary generated automata fit a word or two, where
// New(Auto, …) is Bit outright, so the list side and the switch path are
// exercised only by the wide profile. Over the cases of the short default
// sweep, Auto must construct both engines and an Adaptive run must switch
// in each direction at least once.
func TestSweepCoversBothRepresentations(t *testing.T) {
	var bit, adaptive, toDense, toSparse int
	for i := 0; i < 1000; i++ {
		c, err := NewCase(CaseSeed(1, i))
		if err != nil {
			t.Fatal(err)
		}
		ad, ok := engine.New(engine.Auto, c.NFA, nil).(*engine.Adaptive)
		if !ok {
			bit++
			continue
		}
		adaptive++
		for pos := 0; pos < len(c.Input); {
			was := ad.Dense()
			n, _, _ := ad.StepBatch(c.Input[pos:], int64(pos), nil)
			pos += n
			switch now := ad.Dense(); {
			case now && !was:
				toDense++
			case was && !now:
				toSparse++
			}
		}
	}
	t.Logf("auto: %d bit, %d adaptive; switches: %d to dense, %d to sparse", bit, adaptive, toDense, toSparse)
	if bit == 0 || adaptive == 0 || toDense == 0 || toSparse == 0 {
		t.Fatalf("default sweep does not cover the adaptive engine: %d bit, %d adaptive, %d switches to dense, %d to sparse",
			bit, adaptive, toDense, toSparse)
	}
}

// TestSweepReachesLatch keeps the differential net under the bit kernel's
// latch (engine.Bit): labels over genAlphabet never form a state that
// matches every byte, so only the latch profile builds one. Over the cases
// of the short default sweep, read off the spec and the oracle's final
// frontier — a self-loop state that matches every byte never leaves it — at
// least fifty must have enabled a latchable state, and in at least one of
// those the parallel run must have taken a segment with several flows
// through several TDM rounds: every flow switch resets the engine, which
// drops the latch, and the next round forms it again.
func TestSweepReachesLatch(t *testing.T) {
	var latched, switched int
	for i := 0; i < 1000; i++ {
		c, err := NewCase(CaseSeed(1, i))
		if err != nil {
			t.Fatal(err)
		}
		latchable := make(map[nfa.StateID]bool)
		for _, e := range c.Spec.Edges {
			if st := c.Spec.States[e[0]]; e[0] == e[1] && st.Any && st.Flags&(nfa.AllInput|nfa.Report) == 0 {
				latchable[nfa.StateID(e[0])] = true
			}
		}
		o := NewOracle(c.NFA)
		for _, sym := range c.Input {
			o.Step(sym, nil)
		}
		on := false
		for _, q := range o.Enabled() {
			on = on || latchable[q]
		}
		if !on {
			continue
		}
		latched++
		if len(c.Input) < 8 {
			continue // too short to partition, as in checkParallel
		}
		cfg := core.DefaultConfig(1)
		cfg.TDMQuantum = 8
		cfg.Engine = engine.BitKind
		res, err := core.Run(c.NFA, c.Input, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", c.Seed, err)
		}
		for _, seg := range res.Segments {
			if seg.InitFlows > 1 && seg.Rounds > 2 {
				switched++
				break
			}
		}
	}
	t.Logf("latchable state enabled in %d cases, %d of them with flow switches", latched, switched)
	if latched < 50 || switched == 0 {
		t.Fatalf("default sweep does not cover the latch: a latchable state enabled in %d cases (want >= 50), %d of them with a multi-flow, multi-round segment (want >= 1)",
			latched, switched)
	}
}

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

// TestSweepCoversBothRepresentations keeps the differential net under what
// the bit engine keeps between batches — the delta, its summary and the
// frontier count (see engine.Bit.StepBatch): ordinary generated automata
// fit a word or two, so only the wide profile gives the delta a long vector
// to stay sparse in. Over the cases of the short default sweep, Auto must
// be the bit engine, some cases must be at least 16 words wide, and on
// those, stepped batch by batch, a frontier must die at a batch's end and
// be reborn in a later batch.
func TestSweepCoversBothRepresentations(t *testing.T) {
	var wide, deaths, rebirths int
	for i := 0; i < 1000; i++ {
		c, err := NewCase(CaseSeed(1, i))
		if err != nil {
			t.Fatal(err)
		}
		e, ok := engine.New(engine.Auto, c.NFA, nil).(*engine.Bit)
		if !ok {
			t.Fatalf("case %d: New(Auto) = %T, want the bit engine", i, e)
		}
		if (c.NFA.Len()+63)/64 < 16 {
			continue
		}
		wide++
		dead := e.Dead()
		for pos := 0; pos < len(c.Input); {
			n, _, _ := e.StepBatch(c.Input[pos:], int64(pos), nil)
			pos += n
			now := e.Dead()
			if now && !dead {
				deaths++
			} else if dead && !now {
				rebirths++
			}
			dead = now
		}
	}
	t.Logf("%d cases of 16 words or more; frontiers died %d times and were reborn %d times", wide, deaths, rebirths)
	if wide == 0 || deaths == 0 || rebirths == 0 {
		t.Fatalf("default sweep does not cover the kept delta: %d wide cases, %d deaths, %d rebirths", wide, deaths, rebirths)
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

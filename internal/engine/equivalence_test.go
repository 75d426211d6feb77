package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pap/internal/nfa"
)

// engineSet builds one engine of each kind over n, sharing one Tables, plus
// a second Bit advanced through the batch kernel.
func engineSet(n *nfa.NFA) (names []string, engines []Engine) {
	tab := NewTables(n)
	return []string{"sparse", "bit", "adaptive", "bit-batch"},
		[]Engine{NewSparse(n), NewBit(n, tab), NewAdaptive(n, tab), batched{NewBit(n, tab)}}
}

// batched drives a Bit engine's StepBatch kernel through the scalar Step
// signature, one symbol per call: suites that advance their engines by Step
// then hold the kernel, and the latch it keeps from call to call across
// their Resets and baseline toggles, to the same checks as the scalar
// engines.
type batched struct{ *Bit }

func (b batched) Step(sym byte, off int64, emit EmitFunc) {
	b.StepBatch([]byte{sym}, off, emit)
}

// checkAgreement fails the test if any engine disagrees with the first on
// the full observable state: frontier set, length, fingerprint, liveness
// and cumulative transition count.
func checkAgreement(t *testing.T, ctx string, names []string, engines []Engine) {
	t.Helper()
	ref := engines[0]
	refSet := ref.FrontierSet()
	for i, e := range engines[1:] {
		if !refSet.Equal(e.FrontierSet()) {
			t.Fatalf("%s: %s frontier diverged from %s:\n%v\n%v",
				ctx, names[i+1], names[0], refSet, e.FrontierSet())
		}
		if e.FrontierLen() != ref.FrontierLen() {
			t.Fatalf("%s: %s FrontierLen = %d, %s = %d",
				ctx, names[i+1], e.FrontierLen(), names[0], ref.FrontierLen())
		}
		if e.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: %s fingerprint diverged from %s", ctx, names[i+1], names[0])
		}
		if e.Dead() != ref.Dead() {
			t.Fatalf("%s: %s Dead = %v, %s = %v",
				ctx, names[i+1], e.Dead(), names[0], ref.Dead())
		}
		if e.Stats().Transitions != ref.Stats().Transitions {
			t.Fatalf("%s: %s transitions = %d, %s = %d",
				ctx, names[i+1], e.Stats().Transitions, names[0], ref.Stats().Transitions)
		}
	}
}

// TestEngineEquivalence is the differential property test: on random
// automata and inputs — with mid-run Resets and baseline toggles thrown
// in — Sparse, Bit, Adaptive and Bit's batch kernel must agree on every
// observable:
// frontiers, fingerprints, liveness, reports and transition counts. Every
// tenth automaton is of the wide class, where the adaptive engine really
// uses both representations: the run must see it switch in each direction.
// Every fifth carries the latch profile (see addLatchStates).
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var toDense, toSparse int
	for trial := 0; trial < 60; trial++ {
		var b *nfa.Builder
		if trial%10 == 9 {
			b = randomWideBuilder(rng)
		} else {
			b = randomBuilder(rng, 2+rng.Intn(40))
		}
		if trial%5 == 4 {
			addLatchStates(b, rng)
		}
		n := b.MustBuild()
		names, engines := engineSet(n)
		adaptive := engines[2].(*Adaptive)
		reports := make([][]Report, len(engines))
		emits := make([]EmitFunc, len(engines))
		for i := range engines {
			i := i
			emits[i] = func(r Report) { reports[i] = append(reports[i], r) }
		}
		input := randomInput(rng, 120)
		baseline := true
		for i, sym := range input {
			// Occasionally reset all engines to a common random seed, or
			// flip baseline injection, mid-run.
			if rng.Intn(20) == 0 {
				var seed []nfa.StateID
				for q := 0; q < n.Len(); q++ {
					if rng.Intn(3) == 0 {
						seed = append(seed, nfa.StateID(q))
					}
				}
				for _, e := range engines {
					e.Reset(seed)
				}
			}
			if rng.Intn(30) == 0 {
				baseline = !baseline
				for _, e := range engines {
					e.SetBaseline(baseline)
				}
			}
			was := adaptive.Dense()
			for j, e := range engines {
				e.Step(sym, int64(i), emits[j])
			}
			switch now := adaptive.Dense(); {
			case now && !was:
				toDense++
			case was && !now:
				toSparse++
			}
			checkAgreement(t, "", names, engines)
		}
		for i := 1; i < len(engines); i++ {
			if !SameReports(reports[0], reports[i]) {
				t.Fatalf("trial %d: %s reports diverged from %s:\n%+v\n%+v",
					trial, names[i], names[0], reports[i], reports[0])
			}
		}
	}
	if toDense == 0 || toSparse == 0 {
		t.Fatalf("adaptive switched %d times to dense and %d to sparse; the test no longer covers the switch path", toDense, toSparse)
	}
	t.Logf("adaptive switched %d times to dense, %d to sparse", toDense, toSparse)
}

// FuzzEngineEquivalence drives the engines of engineSet over fuzzer-chosen
// inputs on a fuzzer-chosen random automaton and requires identical
// observables.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), []byte("abcdabcd"))
	f.Add(int64(42), []byte("aaaaaaaaaaaaaaaa"))
	f.Add(int64(9), []byte("dcbadcba\x00\xffzz"))
	// Wide class (seed%8 == 0): 'a' runs grow the frontier past the dense
	// threshold, miss runs longer than the hold bring it back.
	f.Add(int64(16), bytes.Repeat(append(bytes.Repeat([]byte{0}, 20), bytes.Repeat([]byte{4}, 20)...), 6)) // 0 maps to 'a', 4 to 'z'
	// Latch profile (seed%8 == 4, see fuzzNFA): four '.*' states come on one
	// after another from the third symbol and stay on through hits and misses.
	f.Add(int64(68), bytes.Repeat([]byte{0, 1, 2, 3, 0, 0, 4, 4}, 16))
	// Wide and latch profiles together (seed%16 == 12), the bit kernel's
	// background at work on a long vector: the chain of
	// '.*' states latches one link per symbol (each a latchable successor of
	// the one before), then long miss runs leave only latched states and
	// their backgrounds live while hits fire their reporting successors.
	f.Add(int64(140), append(bytes.Repeat([]byte{0, 1, 2, 3}, 8), bytes.Repeat([]byte{4, 4, 4, 4, 4, 4, 0, 3, 2, 1}, 24)...))
	f.Fuzz(func(t *testing.T, seed int64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		rng := rand.New(rand.NewSource(seed))
		n := fuzzNFA(rng, seed)
		names, engines := engineSet(n)
		reports := make([][]Report, len(engines))
		for i, sym := range input {
			// Map arbitrary fuzz bytes onto the automaton's alphabet plus a
			// guaranteed-miss symbol, so runs stay active enough to matter.
			sym = "abcdz"[int(sym)%5]
			for j, e := range engines {
				j := j
				e.Step(sym, int64(i), func(r Report) { reports[j] = append(reports[j], r) })
			}
			checkAgreement(t, "", names, engines)
		}
		for i := 1; i < len(engines); i++ {
			if !SameReports(reports[0], reports[i]) {
				t.Fatalf("%s reports diverged from %s", names[i], names[0])
			}
		}
	})
}

// TestAdaptiveSwitchesRepresentations pins the adaptive policy down on an
// automaton wide enough to sit on the sparse side (64 words, one all-input
// state: dense at frontier >= 21, sparse again at <= 9): a high-fanout
// automaton on an all-hit input must drive the engine dense, and a long
// miss streak must bring it back to sparse, with the frontier intact
// across both migrations.
func TestAdaptiveSwitchesRepresentations(t *testing.T) {
	const states = 4096
	n := fanoutNFA(states)
	sp := NewSparse(n)
	e := New(Auto, n, nil)
	ad, ok := e.(*Adaptive)
	if !ok || ad.Dense() {
		t.Fatalf("New(Auto) on %d states with one all-input state: want Adaptive starting sparse, got %T", states, e)
	}
	step := func(sym byte, off int64) {
		sp.Step(sym, off, nil)
		ad.Step(sym, off, nil)
		if sp.Fingerprint() != ad.Fingerprint() {
			t.Fatalf("fingerprints diverged at offset %d", off)
		}
	}
	var off int64
	for i := 0; i < 4*adaptiveHoldSteps; i++ { // saturating hits
		step('a', off)
		off++
	}
	if !ad.Dense() {
		t.Fatalf("adaptive stayed sparse at frontier %d/%d states", ad.FrontierLen(), states)
	}
	for i := 0; i < 4*adaptiveHoldSteps; i++ { // miss streak drains the frontier
		step('z', off)
		off++
	}
	if ad.Dense() {
		t.Fatal("adaptive stayed dense on an empty frontier")
	}
	if ad.Stats().Switches < 2 {
		t.Fatalf("switches = %d, want >= 2", ad.Stats().Switches)
	}
	if sp.Stats().Transitions != ad.Stats().Transitions {
		t.Fatalf("transitions = %d, want %d", ad.Stats().Transitions, sp.Stats().Transitions)
	}
}

// TestAdaptiveBaselineOffIgnoresASG pins the cost the policy charges the
// list side: F+A with the baseline on, F alone with it off, since an
// enumeration flow never steps the all-input states. On 64 words with 8
// all-input states (Auto builds Adaptive: 8·8 ≤ 64), a one-state frontier
// walking a chain costs 8·(1+8) = 72 > 64 with the baseline — dense — but
// 8·1 without it, which must stay on the list.
func TestAdaptiveBaselineOffIgnoresASG(t *testing.T) {
	const asg = 8
	b := nfa.NewBuilder("asg-off")
	for i := 0; i < 4096; i++ {
		if i < asg {
			b.AddState(nfa.ClassOf('b'), nfa.AllInput) // never fires on 'a'
			continue
		}
		b.AddState(nfa.ClassOf('a'), 0)
	}
	for i := asg; i < 4096; i++ { // a ring of 'a' states
		b.AddEdge(nfa.StateID(i), nfa.StateID(asg+(i-asg+1)%(4096-asg)))
	}
	n := b.MustBuild()
	for _, baseline := range []bool{true, false} {
		e, ok := New(Auto, n, nil).(*Adaptive)
		if !ok || e.Dense() {
			t.Fatalf("New(Auto) = %T starting dense, want Adaptive on the list", e)
		}
		e.SetBaseline(baseline)
		e.Reset([]nfa.StateID{100})
		for i := 0; i < 4*adaptiveHoldSteps; i++ {
			e.Step('a', int64(i), nil)
		}
		if e.FrontierLen() != 1 {
			t.Fatalf("baseline=%v: frontier %d, want the one chain state", baseline, e.FrontierLen())
		}
		if e.Dense() != baseline {
			t.Errorf("baseline=%v: dense = %v after %d steps of a one-state frontier, want %v",
				baseline, e.Dense(), 4*adaptiveHoldSteps, baseline)
		}
	}
}

// asgNFA builds a chain of the given length whose first allInput states are
// all-input and whose next starts states are start-of-data: the two
// quantities the Auto choice looks at, and nothing else.
func asgNFA(states, allInput, starts int) *nfa.NFA {
	b := nfa.NewBuilder("asg")
	for i := 0; i < states; i++ {
		var flags nfa.Flags
		switch {
		case i < allInput:
			flags = nfa.AllInput
		case i < allInput+starts:
			flags = nfa.StartOfData
		}
		b.AddState(nfa.ClassOf('a'), flags)
		if i > 0 {
			b.AddEdge(nfa.StateID(i-1), nfa.StateID(i))
		}
	}
	return b.MustBuild()
}

// TestAutoPolicy pins what New(Auto, …) constructs over (A, W) pairs on
// both sides of 8·A > W, and that the two other routes to the default — the
// lazy DFA's Meta fallback and ScoringKind's remap of a score-less kind —
// make the same choice.
func TestAutoPolicy(t *testing.T) {
	saved := lazyFactory
	defer RegisterLazyDFA(saved)
	// A lazy DFA that falls back at once: New(MetaKind, …) is its fallback.
	RegisterLazyDFA(func(_ *nfa.NFA, _ *Tables, newFB func() Engine) Engine { return newFB() })

	for _, c := range []struct {
		states, allInput, starts int
		bit, startDense          bool
	}{
		{states: 64, allInput: 1, starts: 0, bit: true},                       // W=1: 8 > 1
		{states: 448, allInput: 1, starts: 0, bit: true},                      // W=7: 8 > 7
		{states: 512, allInput: 1, starts: 0, bit: false},                     // W=8: 8 > 8 fails
		{states: 4096, allInput: 8, starts: 0, bit: false},                    // W=64: 64 > 64 fails
		{states: 4096, allInput: 9, starts: 0, bit: true},                     // W=64: 72 > 64
		{states: 1781, allInput: 100, starts: 0, bit: true},                   // snort_sparse's shape
		{states: 32735, allInput: 67, starts: 0, bit: true},                   // Snort at scale 1.0: 536 > 512
		{states: 32735, allInput: 63, starts: 0, bit: false},                  // W=512: 504 > 512 fails
		{states: 4096, allInput: 1, starts: 8, bit: false, startDense: true},  // 8·(8+1) > 64
		{states: 4096, allInput: 1, starts: 7, bit: false, startDense: false}, // 8·(7+1) > 64 fails
		{states: 40, allInput: 0, starts: 1, bit: false, startDense: true},    // anchored, no ASG
	} {
		n := asgNFA(c.states, c.allInput, c.starts)
		name := fmt.Sprintf("states=%d/A=%d/starts=%d", c.states, c.allInput, c.starts)
		scored := NewWithOpts(MetaKind, n, nil, RunOpts{Scored: true})
		for route, e := range map[string]Engine{
			"New(Auto)":            New(Auto, n, nil),
			"Meta fallback":        New(MetaKind, n, nil),
			"ScoringKind(Meta)":    scored.Engine(),
			"ScoringKind(LazyDFA)": New(ScoringKind(LazyDFAKind), n, nil),
		} {
			switch e := e.(type) {
			case *Bit:
				if !c.bit {
					t.Errorf("%s: %s built Bit, want Adaptive", name, route)
				}
			case *Adaptive:
				if c.bit {
					t.Errorf("%s: %s built Adaptive, want Bit", name, route)
				} else if e.Dense() != c.startDense {
					t.Errorf("%s: %s starts dense=%v, want %v", name, route, e.Dense(), c.startDense)
				}
			default:
				t.Errorf("%s: %s built %T", name, route, e)
			}
			if sw := e.Stats().Switches; sw != 0 {
				t.Errorf("%s: %s counts %d switches at construction", name, route, sw)
			}
		}
	}
}

// TestTablesConcurrentSharing exercises the lazy fills of one unbuilt
// Tables — match vectors and the automaton's per-symbol backgrounds — from
// many goroutines sharing it (run under -race in CI): Bit and Adaptive,
// each advanced by scalar Step and by the batch kernel, over an automaton
// with '.*' states, so first uses of the shared entries race each other.
// Every engine must end with the reference fingerprint and transitions.
func TestTablesConcurrentSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := randomBuilder(rng, 200)
	addLatchStates(b, rng)
	n := b.MustBuild()
	input := randomInput(rng, 400)

	ref := NewSparse(n)
	for i, sym := range input {
		ref.Step(sym, int64(i), nil)
	}

	shared := NewTables(n) // deliberately not BuildAll: races hit the fills
	var wg sync.WaitGroup
	type outcome struct {
		fp    uint64
		trans int64
	}
	got := make([]outcome, 16)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var e Engine
			if g%2 == 0 {
				e = NewBit(n, shared)
			} else {
				e = NewAdaptive(n, shared)
			}
			if g%4 < 2 {
				for i, sym := range input {
					e.Step(sym, int64(i), nil)
				}
			} else {
				for i := 0; i < len(input); {
					c, _, _ := e.StepBatch(input[i:], int64(i), nil)
					i += c
				}
			}
			got[g] = outcome{e.Fingerprint(), e.Stats().Transitions}
		}(g)
	}
	wg.Wait()
	want := outcome{ref.Fingerprint(), ref.Stats().Transitions}
	for g, o := range got {
		if o != want {
			t.Fatalf("goroutine %d ends at %+v, want %+v", g, o, want)
		}
	}
}

// fanoutNFA builds a density-controllable automaton: an all-input seeder
// plus a ring of states labelled 'a', each with two successors, so a run of
// k consecutive 'a' symbols roughly doubles the frontier k times (dense),
// while any other symbol empties it (sparse). Input hit-rate, not
// structure, then sets the steady-state frontier density.
func fanoutNFA(states int) *nfa.NFA {
	b := nfa.NewBuilder("fanout")
	for i := 0; i < states; i++ {
		flags := nfa.Flags(0)
		if i == 0 {
			flags = nfa.AllInput
		}
		b.AddState(nfa.ClassOf('a'), flags)
	}
	for i := 0; i < states; i++ {
		b.AddEdge(nfa.StateID(i), nfa.StateID((i+1)%states))
		b.AddEdge(nfa.StateID(i), nfa.StateID((i+17)%states))
	}
	return b.MustBuild()
}

// hitRateInput returns size symbols where each is 'a' with probability
// rate and a guaranteed miss otherwise.
func hitRateInput(rng *rand.Rand, size int, rate float64) []byte {
	out := make([]byte, size)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = 'a'
		} else {
			out[i] = 'z'
		}
	}
	return out
}

// BenchmarkEngineDensity sweeps the three backends across frontier-density
// regimes on the same fanout automaton (32 words, one all-input state:
// Auto is the Adaptive engine), through the production run loop: sparse
// (2% hit rate), mixed (50%) and dense (98% — the frontier saturates). Auto
// should track the better forced kind in each regime; the constants
// themselves come from BenchmarkAutoPolicySweep, see docs/ENGINES.md.
func BenchmarkEngineDensity(b *testing.B) {
	const states = 2048
	n := fanoutNFA(states)
	tab := NewTables(n).BuildAll()
	regimes := []struct {
		name string
		rate float64
	}{
		{"sparse", 0.02},
		{"mixed", 0.50},
		{"dense", 0.98},
	}
	kinds := []Kind{SparseKind, BitKind, Auto}
	for _, reg := range regimes {
		input := hitRateInput(rand.New(rand.NewSource(17)), 1<<14, reg.rate)
		b.Run(reg.name, func(b *testing.B) {
			for _, kind := range kinds {
				b.Run(kind.String(), func(b *testing.B) {
					b.SetBytes(int64(len(input)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						RunEngineOpts(n, input, kind, tab, RunOpts{})
					}
				})
			}
		})
	}
}

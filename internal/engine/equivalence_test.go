package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"pap/internal/nfa"
)

// engineSet builds one engine of each kind over n, sharing one Tables, plus
// a second Bit advanced through the batch kernel.
func engineSet(n *nfa.NFA) (names []string, engines []Engine) {
	tab := NewTables(n)
	return []string{"sparse", "bit", "bit-batch"},
		[]Engine{NewSparse(n), NewBit(n, tab), batched{NewBit(n, tab)}}
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
// in — Sparse, Bit and Bit's batch kernel must agree on every observable:
// frontiers, fingerprints, liveness, reports and transition counts. Every
// tenth automaton is of the wide class (see randomWideBuilder), where the
// batch kernel keeps a sparse delta in a long vector. Every fifth carries
// the latch profile (see addLatchStates).
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
			for j, e := range engines {
				e.Step(sym, int64(i), emits[j])
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
}

// FuzzEngineEquivalence drives the engines of engineSet over fuzzer-chosen
// inputs on a fuzzer-chosen random automaton and requires identical
// observables.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), []byte("abcdabcd"))
	f.Add(int64(42), []byte("aaaaaaaaaaaaaaaa"))
	f.Add(int64(9), []byte("dcbadcba\x00\xffzz"))
	// Wide class (seed%8 == 0): 'a' runs grow the delta until it fills half
	// its words, miss runs empty it.
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

// toIDs converts state indices to IDs.
func toIDs(qs []int) []nfa.StateID {
	ids := make([]nfa.StateID, len(qs))
	for i, q := range qs {
		ids[i] = nfa.StateID(q)
	}
	return ids
}

// TestTablesConcurrentSharing exercises the lazy fills of one unbuilt
// Tables — match vectors and the automaton's per-symbol backgrounds — from
// many goroutines sharing it (run under -race in CI): Bit engines, half
// advanced by scalar Step and half by the batch kernel, over an automaton
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
			e := NewBit(n, shared)
			if g%2 == 0 {
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

// BenchmarkEngineDensity sweeps the backends across frontier-density
// regimes on the same fanout automaton (32 words, one all-input state),
// through the production run loop: sparse (2% hit rate), mixed (50%) and
// dense (98% — the frontier saturates). Auto is the bit engine, and its
// row differs from bit's by noise only; see docs/ENGINES.md.
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

package lazydfa_test

import (
	"math/rand"
	"testing"

	"pap/internal/conformance"
	"pap/internal/engine"
	"pap/internal/engine/lazydfa"
	"pap/internal/nfa"
)

// step runs one symbol through every engine and fails on any divergence
// of the observable state.
func checkStep(t *testing.T, trial int, off int64, names []string, engines []engine.Engine) {
	t.Helper()
	ref := engines[0]
	for i, e := range engines[1:] {
		if e.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("trial %d off %d: %s fingerprint %#x, %s %#x",
				trial, off, names[i+1], e.Fingerprint(), names[0], ref.Fingerprint())
		}
		if e.FrontierLen() != ref.FrontierLen() {
			t.Fatalf("trial %d off %d: %s FrontierLen %d, %s %d",
				trial, off, names[i+1], e.FrontierLen(), names[0], ref.FrontierLen())
		}
		if e.Dead() != ref.Dead() {
			t.Fatalf("trial %d off %d: %s Dead %v, %s %v",
				trial, off, names[i+1], e.Dead(), names[0], ref.Dead())
		}
		if e.Stats().Transitions != ref.Stats().Transitions {
			t.Fatalf("trial %d off %d: %s transitions %d, %s %d",
				trial, off, names[i+1], e.Stats().Transitions, names[0], ref.Stats().Transitions)
		}
		if !ref.FrontierSet().Equal(e.FrontierSet()) {
			t.Fatalf("trial %d off %d: %s frontier diverged from %s",
				trial, off, names[i+1], names[0])
		}
	}
}

// TestLazyDFAEquivalence is the differential property test for the lazy
// DFA: on random automata and inputs — with mid-run Resets and baseline
// flips — the default engine, a cache-starved engine (which flushes and
// then falls back permanently mid-run), and the meta stack must all agree
// with the sparse reference on every observable at every step.
func TestLazyDFAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		spec := conformance.RandomSpec(rng)
		n, err := spec.Build()
		if err != nil {
			continue
		}
		tab := engine.NewTables(n)
		names := []string{"sparse", "lazydfa", "lazydfa-starved", "meta"}
		engines := []engine.Engine{
			engine.NewSparse(n),
			lazydfa.New(n, tab),
			lazydfa.NewWithFallback(n, lazydfa.Config{MaxStates: 2, MaxFlushes: 1}, nil),
			engine.New(engine.MetaKind, n, tab),
		}
		reports := make([][]engine.Report, len(engines))
		emits := make([]engine.EmitFunc, len(engines))
		for i := range engines {
			i := i
			emits[i] = func(r engine.Report) { reports[i] = append(reports[i], r) }
		}
		input := conformance.RandomInput(rng, spec)
		baseline := true
		for i, sym := range input {
			if rng.Intn(24) == 0 {
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
			checkStep(t, trial, int64(i), names, engines)
		}
		for i := 1; i < len(engines); i++ {
			if !engine.SameReports(reports[0], reports[i]) {
				t.Fatalf("trial %d (spec %v): %s reports diverged from sparse",
					trial, spec, names[i])
			}
		}
	}
}

// denseNFA is a high-fanout automaton whose frontier keeps changing on a
// varied input — cache-hostile by construction.
func denseNFA(states int) *nfa.NFA {
	b := nfa.NewBuilder("dense")
	for i := 0; i < states; i++ {
		flags := nfa.Flags(0)
		if i == 0 {
			flags = nfa.AllInput
		}
		b.AddState(nfa.ClassOf('a', 'b'), flags)
	}
	for i := 0; i < states; i++ {
		b.AddEdge(nfa.StateID(i), nfa.StateID((i+1)%states))
		b.AddEdge(nfa.StateID(i), nfa.StateID((i*7+3)%states))
	}
	return b.MustBuild()
}

// TestLazyDFAFallbackContinuity starves the cache until permanent
// fallback and checks that the engine stays observably exact through the
// flush and the switch: cumulative transitions equal the sparse
// reference's, and the cache stats record the journey.
func TestLazyDFAFallbackContinuity(t *testing.T) {
	n := denseNFA(64)
	e := lazydfa.NewWithFallback(n, lazydfa.Config{MaxStates: 4, MaxFlushes: 1}, nil)
	sp := engine.NewSparse(n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		sym := []byte("abab z")[rng.Intn(6)]
		e.Step(sym, int64(i), nil)
		sp.Step(sym, int64(i), nil)
		if e.Fingerprint() != sp.Fingerprint() {
			t.Fatalf("fingerprint diverged at offset %d", i)
		}
	}
	if e.Stats().Transitions != sp.Stats().Transitions {
		t.Fatalf("transitions = %d, want %d", e.Stats().Transitions, sp.Stats().Transitions)
	}
	cs := e.Stats().Cache
	if !cs.FellBack {
		t.Fatalf("engine never fell back on a cache-hostile workload: %+v", cs)
	}
	if cs.Evictions == 0 {
		t.Fatalf("fallback recorded no evictions: %+v", cs)
	}
	if cs.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (the whole budget)", cs.Flushes)
	}
	// Post-fallback the engine must keep working: Reset and more steps.
	e.Reset(n.StartStates())
	sp.Reset(n.StartStates())
	for i := 0; i < 100; i++ {
		e.Step('a', int64(i), nil)
		sp.Step('a', int64(i), nil)
	}
	if e.Fingerprint() != sp.Fingerprint() {
		t.Fatal("fingerprint diverged after post-fallback reset")
	}
}

// TestLazyDFACacheReplay drives a periodic input: after the first period
// populates the cache, subsequent periods must be pure hits.
func TestLazyDFACacheReplay(t *testing.T) {
	n := denseNFA(16)
	e := lazydfa.New(n, nil)
	pattern := []byte("ababz abz")
	var off int64
	for rep := 0; rep < 50; rep++ {
		for _, sym := range pattern {
			e.Step(sym, off, nil)
			off++
		}
	}
	cs := e.Stats().Cache
	if cs.FellBack {
		t.Fatalf("fell back on a trivially periodic workload: %+v", cs)
	}
	if cs.Hits < cs.Misses*10 {
		t.Fatalf("hits = %d, misses = %d; periodic input should be nearly all hits", cs.Hits, cs.Misses)
	}
	if cs.States > len(pattern)*4 {
		t.Fatalf("cached states = %d for a %d-symbol period", cs.States, len(pattern))
	}
}

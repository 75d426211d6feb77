package engine_test

import (
	"math/rand"
	"testing"

	"pap/internal/engine"
	"pap/internal/nfa"

	// Link the lazy-DFA backend so LazyDFAKind/MetaKind are constructible.
	_ "pap/internal/engine/lazydfa"
)

// needleNFA recognises the fixed literal "needle": one all-input root on
// 'n' and a pure chain for the rest. Its narrow start class and extractable
// literal make it the best case for both prefilter tiers.
func needleNFA() *nfa.NFA {
	b := nfa.NewBuilder("needle")
	prev := b.AddState(nfa.ClassOf('n'), nfa.AllInput)
	for _, c := range []byte("eedle") {
		id := b.AddState(nfa.ClassOf(c), 0)
		b.AddEdge(prev, id)
		prev = id
	}
	b.SetFlags(prev, nfa.Report)
	b.SetReportCode(prev, 1)
	return b.MustBuild()
}

// wideRootNFA has a 6-symbol all-input root — too wide for literal
// extraction (maxClassExpand) and dense enough in the input alphabet that
// the class scanner almost never skips. The prefilter's worst case.
func wideRootNFA() *nfa.NFA {
	b := nfa.NewBuilder("wide")
	root := b.AddState(nfa.ClassOf([]byte("abcdef")...), nfa.AllInput)
	mid := b.AddState(nfa.ClassOf([]byte("abcdef")...), 0)
	tail := b.AddState(nfa.ClassOf('!'), 0)
	b.SetFlags(tail, nfa.Report)
	b.SetReportCode(tail, 1)
	b.AddEdge(root, mid)
	b.AddEdge(mid, tail)
	return b.MustBuild()
}

// quietInput is haystack text whose bytes never include 'n' except for
// occasional planted "needle"s — start-class hit rate well under 1%.
func quietInput(rng *rand.Rand, size, plants int) []byte {
	out := make([]byte, size)
	alphabet := []byte("abcdefghijklm opqrstuvwxyz.,!? ")
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	for p := 0; p < plants; p++ {
		at := rng.Intn(size - 8)
		copy(out[at:], "needle")
	}
	return out
}

// burstyInput alternates long quiet stretches with dense bursts of
// start-class bytes — the regime where the prefilter's restart cost after
// every hit shows up.
func burstyInput(rng *rand.Rand, size int) []byte {
	out := make([]byte, size)
	i := 0
	for i < size {
		quiet := 256 + rng.Intn(1024)
		for j := 0; j < quiet && i < size; j++ {
			out[i] = " abcdemopqrstuvwxyz"[rng.Intn(19)]
			i++
		}
		burst := 32 + rng.Intn(96)
		for j := 0; j < burst && i < size; j++ {
			out[i] = "needl"[rng.Intn(5)]
			i++
		}
	}
	return out
}

// denseInput is uniformly drawn from the wide root's own class: every byte
// is a start-class hit, so the prefilter can never skip.
func denseInput(rng *rand.Rand, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = "abcdef"[rng.Intn(6)]
	}
	return out
}

// BenchmarkPrefilterRegime measures every backend on the three prefilter
// regimes from docs/ENGINES.md: quiet (rare start-class bytes, literal
// extractable — prefilter heaven), bursty (alternating quiet stretches and
// hit clusters), and adversarial (wide root class, no literal, every byte
// a hit — prefilter can only get in the way). Throughput is reported via
// b.SetBytes.
func BenchmarkPrefilterRegime(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	regimes := []struct {
		name  string
		n     *nfa.NFA
		input []byte
	}{
		{"quiet", needleNFA(), quietInput(rng, 1<<16, 4)},
		{"bursty", needleNFA(), burstyInput(rng, 1<<16)},
		{"adversarial", wideRootNFA(), denseInput(rng, 1<<16)},
	}
	kinds := []engine.Kind{engine.SparseKind, engine.BitKind, engine.Auto,
		engine.LazyDFAKind, engine.MetaKind}
	for _, reg := range regimes {
		b.Run(reg.name, func(b *testing.B) {
			tab := engine.NewTables(reg.n).BuildAll()
			for _, kind := range kinds {
				b.Run(kind.String(), func(b *testing.B) {
					b.SetBytes(int64(len(reg.input)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						engine.RunEngineOpts(reg.n, reg.input, kind, tab,
							engine.RunOpts{LiteralPrefilter: true})
					}
				})
			}
		})
	}
}

// BenchmarkLazyDensity reruns the BenchmarkEngineDensity workload (same
// fanout automaton and hit-rate inputs) for the two backends that live
// outside the engine package, producing comparable rows.
func BenchmarkLazyDensity(b *testing.B) {
	const states = 2048
	bd := nfa.NewBuilder("fanout")
	for i := 0; i < states; i++ {
		flags := nfa.Flags(0)
		if i == 0 {
			flags = nfa.AllInput
		}
		bd.AddState(nfa.ClassOf('a'), flags)
	}
	for i := 0; i < states; i++ {
		bd.AddEdge(nfa.StateID(i), nfa.StateID((i+1)%states))
		bd.AddEdge(nfa.StateID(i), nfa.StateID((i+17)%states))
	}
	n := bd.MustBuild()

	regimes := []struct {
		name string
		rate float64
	}{
		{"sparse", 0.02},
		{"mixed", 0.50},
		{"dense", 0.98},
	}
	for _, reg := range regimes {
		rng := rand.New(rand.NewSource(17))
		input := make([]byte, 1<<14)
		for i := range input {
			if rng.Float64() < reg.rate {
				input[i] = 'a'
			} else {
				input[i] = 'z'
			}
		}
		b.Run(reg.name, func(b *testing.B) {
			for _, kind := range []engine.Kind{engine.LazyDFAKind, engine.MetaKind} {
				b.Run(kind.String(), func(b *testing.B) {
					tab := engine.NewTables(n).BuildAll()
					e := engine.New(kind, n, tab)
					b.SetBytes(int64(len(input)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j, sym := range input {
							e.Step(sym, int64(j), nil)
						}
					}
				})
			}
		})
	}
}

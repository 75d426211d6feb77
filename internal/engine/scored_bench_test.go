package engine_test

import (
	"math/rand"
	"testing"

	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/workloads"
)

// BenchmarkScoredOverhead prices the scoring machinery against the unscored
// hot path, in the regime BenchmarkHotLoop measures (sparse intrusion
// traffic, mostly-dead frontier) and on a genuinely scored workload:
//
//   - intrusion/unscored        — the seed hot path, untouched by this work
//   - intrusion/score-tracking  — the same unscored automaton with score
//     tracking forced on (all-zero scores): the worst-case cost of tracking,
//     since nothing useful is bought
//   - motif/scoring-off         — a scored automaton (weights present) with
//     tracking off: must price like an unscored run, because the score
//     arrays are never touched
//   - motif/scoring-on          — the real scored path
//
// The acceptance bar is on the first row: with scoring compiled in but
// disabled, the unscored hot path allocates nothing per run beyond the
// result itself and TestHotLoopGuard still clears its 5x floor.
func BenchmarkScoredOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	intrusion := hotloopAutomaton(b, "Snort", 0.05)
	intrusionIn := sparsePayload(rng, 1<<16)

	motifSpec, err := workloads.Get("ScoredMotif")
	if err != nil {
		b.Fatal(err)
	}
	motif, err := motifSpec.Build(0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	motifIn := motifSpec.Trace(motif, 1<<16, 13)

	cases := []struct {
		name  string
		n     *nfa.NFA
		input []byte
		opts  engine.RunOpts
	}{
		{"intrusion/unscored", intrusion, intrusionIn, engine.RunOpts{}},
		{"intrusion/score-tracking", intrusion, intrusionIn, engine.RunOpts{Scored: true}},
		{"motif/scoring-off", motif, motifIn, engine.RunOpts{}},
		{"motif/scoring-on", motif, motifIn, engine.RunOpts{Scored: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tab := engine.NewTables(c.n).BuildAll()
			b.SetBytes(int64(len(c.input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.RunEngineOpts(c.n, c.input, engine.BitKind, tab, c.opts)
			}
		})
	}
}

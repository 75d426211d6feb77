package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pap/internal/regex"
)

// benchProfile is one workload regime of the mode-comparison benchmark:
// a ruleset plus an input generator chosen to stress a different part of
// the enumeration/composition trade-off.
type benchProfile struct {
	name     string
	patterns []string
	input    func(rng *rand.Rand, size int) []byte
}

// modeProfiles are the three regimes of BenchmarkModeComparison:
//
//   - quiet: sparse matches in mostly-inert input — enumeration flows die
//     fast, composition has few classes to map.
//   - dense-fanout: wildcard patterns over a small alphabet keep many
//     states active, so flow mode carries many live flows per round while
//     SFA mode amortizes them into few equivalence classes.
//   - intrusion-like: literal-heavy Snort-flavoured rules over log-like
//     text, the paper's headline workload shape.
var modeProfiles = []benchProfile{
	{
		name:     "quiet",
		patterns: []string{"attack", "defen[cs]e", "xy{2,4}z"},
		input: func(rng *rand.Rand, size int) []byte {
			return genInput(rng, size, []string{"attack", "defense"})
		},
	},
	{
		name:     "dense-fanout",
		patterns: []string{"a.c", "ab.?d", "a[bc]{2,4}e", "c.*d"},
		input: func(rng *rand.Rand, size int) []byte {
			alpha := []byte("abcde")
			in := make([]byte, size)
			for i := range in {
				in[i] = alpha[rng.Intn(len(alpha))]
			}
			return in
		},
	},
	{
		name:     "intrusion-like",
		patterns: []string{"GET /admin", "etc/passwd", "SELECT.{0,16}FROM", "[0-9][0-9]:[0-9][0-9]"},
		input: func(rng *rand.Rand, size int) []byte {
			in := genInput(rng, size, nil)
			for _, s := range []string{"GET /admin", "etc/passwd", "SELECT x FROM", "13:37"} {
				for k := 0; k < 4; k++ {
					pos := rng.Intn(size - len(s))
					copy(in[pos:], s)
				}
			}
			return in
		},
	},
}

// BenchmarkModeComparison sweeps the two execution modes across workload
// regimes and segment counts. Both modes produce identical matches on every iteration
// (checked); wall-clock and modelled-cycle differences are the point.
func BenchmarkModeComparison(b *testing.B) {
	const size = 1 << 16
	for _, p := range modeProfiles {
		n, err := regex.CompilePatterns(p.name, p.patterns)
		if err != nil {
			b.Fatal(err)
		}
		input := p.input(rand.New(rand.NewSource(33)), size)
		for _, segs := range []int{1, 2, 4, 8} {
			for _, mode := range []Mode{ModeFlows, ModeSFA} {
				b.Run(fmt.Sprintf("%s/segments=%d/%s", p.name, segs, mode), func(b *testing.B) {
					cfg := DefaultConfig(4)
					cfg.MaxSegments = segs
					cfg.Mode = mode
					plan, err := NewPlan(n, input, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(len(input)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := plan.Execute(input)
						if err != nil {
							b.Fatal(err)
						}
						if !res.Correct {
							b.Fatal("incorrect result")
						}
					}
				})
			}
		}
	}
}

// Package workloads synthesizes the 19 benchmark automata of the paper's
// Table 1 (the Regex suite of Becchi et al. and the ANMLZoo suite of Wadden
// et al.). The original rulesets are not redistributable (Snort snapshots,
// ClamAV databases, IBM PowerEN rules, ANMLZoo ANML files), so each
// generator reproduces its benchmark's *structural profile* — state count,
// cut-symbol range, number of connected components, placement footprint,
// alphabet, density — which is what every PAP mechanism depends on. The
// paper-reported characteristics are kept alongside each Spec so the
// Table 1 experiment can print paper-vs-generated columns.
package workloads

import (
	"fmt"
	"math/rand"

	"pap/internal/nfa"
	"pap/internal/tracegen"
)

// Spec describes one benchmark: how to build its automaton and synthesize
// its input traces, plus the characteristics Table 1 reports for it.
type Spec struct {
	Name        string
	Suite       string // "Regex" or "ANMLZoo"
	Description string

	// Paper-reported characteristics (Table 1).
	PaperStates    int
	PaperRange     int
	PaperCCs       int
	PaperHalfCores int

	// DisableCompression mirrors §4.1: ClamAV, Fermi and RandomForest skip
	// common-prefix merging because it reduces the number of connected
	// components with little state reduction. (We extend this to SPM and
	// Hamming/Levenshtein, whose generators already emit merged automata.)
	DisableCompression bool

	build func(scale float64, seed int64) (*nfa.NFA, error)
	trace func(n *nfa.NFA, size int, seed int64) []byte
}

// Build constructs the benchmark automaton. scale (0,1] scales pattern
// counts relative to the paper's full-size rulesets; common-prefix
// compression is applied unless the benchmark opts out.
func (s *Spec) Build(scale float64, seed int64) (*nfa.NFA, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("workloads: scale %v out of (0,1]", scale)
	}
	n, err := s.build(scale, seed)
	if err != nil {
		return nil, err
	}
	if !s.DisableCompression {
		n = nfa.MergeCommonPrefixes(n)
	}
	return n, nil
}

// Trace synthesizes an input trace of the given size for the built
// automaton, using the benchmark's domain alphabet and the Becchi match
// probability pm = 0.75 (§4.1).
func (s *Spec) Trace(n *nfa.NFA, size int, seed int64) []byte {
	return s.trace(n, size, seed)
}

// All returns the 19 benchmarks in Table 1 order.
func All() []*Spec {
	return []*Spec{
		dotstar03(), dotstar06(), dotstar09(),
		ranges05(), ranges1(), exactMatch(),
		bro217(), tcp(), powerEN1(),
		fermi(), randomForest(), spm(),
		dotstarZoo(), hamming(), protomata(),
		levenshtein(), entityResolution(), snort(), clamAV(),
	}
}

// Get returns the benchmark with the given name, searching Table 1 (All)
// and the non-Table-1 extras (Extras).
func Get(name string) (*Spec, error) {
	for _, s := range append(All(), Extras()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// ---- shared alphabets and trace helpers ----

var (
	printable = func() []byte {
		var a []byte
		for c := byte(0x20); c <= 0x7e; c++ {
			a = append(a, c)
		}
		return a
	}()
	dna    = []byte("ACGT")
	aminos = []byte("ACDEFGHIKLMNPQRSTVWY")
)

// networkTrace is the Becchi pm=0.75 trace over printable bytes with
// newline delimiters, used by the network/text benchmarks.
func networkTrace(n *nfa.NFA, size int, seed int64) []byte {
	t := tracegen.Becchi(n, size, tracegen.Config{PM: 0.75, Alphabet: printable, Seed: seed})
	return tracegen.WithDelimiters(t, '\n', 1.0/64, seed+1)
}

func alphaTrace(alphabet []byte) func(*nfa.NFA, int, int64) []byte {
	return func(n *nfa.NFA, size int, seed int64) []byte {
		return tracegen.Becchi(n, size, tracegen.Config{PM: 0.75, Alphabet: alphabet, Seed: seed})
	}
}

// scaleCount scales a paper-size count, keeping at least min.
func scaleCount(count int, scale float64, min int) int {
	n := int(float64(count) * scale)
	if n < min {
		n = min
	}
	return n
}

// randLiteral returns a random literal of length k over alphabet, escaping
// regex metacharacters.
func randLiteral(rng *rand.Rand, alphabet []byte, k int) string {
	out := make([]byte, 0, 2*k)
	for i := 0; i < k; i++ {
		c := alphabet[rng.Intn(len(alphabet))]
		switch c {
		case '.', '*', '+', '?', '(', ')', '[', ']', '{', '}', '|', '^', '$', '\\', '-':
			out = append(out, '\\', c)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// randClass returns a random character class of width w over alphabet,
// avoiding metacharacter escaping issues by using only alphanumerics.
func randClass(rng *rand.Rand, alphabet []byte, w int) string {
	out := []byte{'['}
	seen := map[byte]bool{}
	for len(seen) < w {
		c := alphabet[rng.Intn(len(alphabet))]
		switch c {
		case ']', '\\', '^', '-':
			continue
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return string(append(out, ']'))
}

package conformance

import (
	"fmt"
	"math/rand"
	"strings"

	"pap/internal/nfa"
)

// StateSpec is the shrinkable description of one state: its label symbols
// (or Any, for the label of all 256 bytes), role flags, and report code.
type StateSpec struct {
	Syms  []byte
	Any   bool
	Flags nfa.Flags
	Code  int32
}

// NFASpec is a concrete, serializable automaton description — the unit the
// shrinker edits and failure reports print. Build converts it to an NFA.
type NFASpec struct {
	States []StateSpec
	Edges  [][2]int32 // from, to
	// Weights holds per-edge score annotations parallel to Edges. Empty
	// means an unscored automaton; non-empty means every edge is added with
	// nfa.AddScoredEdge (zero weights included, so all-zero scored specs
	// exercise the scored paths without changing any score).
	Weights []int32
}

// scored reports whether the spec builds a scored automaton.
func (s *NFASpec) scored() bool { return len(s.Weights) > 0 }

// Build constructs the NFA, or returns an error for degenerate specs (no
// states, no start states) — the shrinker treats those as "not failing".
func (s *NFASpec) Build() (*nfa.NFA, error) {
	b := nfa.NewBuilder("conformance")
	for _, st := range s.States {
		cls := nfa.ClassOf(st.Syms...)
		switch {
		case st.Any:
			cls = nfa.AnyClass()
		case cls.Empty():
			cls = nfa.ClassOf('a')
		}
		id := b.AddState(cls, st.Flags&^nfa.Report)
		if st.Flags&nfa.Report != 0 {
			b.SetFlags(id, nfa.Report)
			b.SetReportCode(id, st.Code)
		}
	}
	if s.scored() && len(s.Weights) != len(s.Edges) {
		return nil, fmt.Errorf("conformance: %d weights for %d edges", len(s.Weights), len(s.Edges))
	}
	for i, e := range s.Edges {
		if e[0] < 0 || int(e[0]) >= len(s.States) || e[1] < 0 || int(e[1]) >= len(s.States) {
			return nil, fmt.Errorf("conformance: edge %v out of range", e)
		}
		if s.scored() {
			b.AddScoredEdge(nfa.StateID(e[0]), nfa.StateID(e[1]), s.Weights[i])
		} else {
			b.AddEdge(nfa.StateID(e[0]), nfa.StateID(e[1]))
		}
	}
	return b.Build()
}

// String renders the spec compactly, for failure reports:
// "5 states; 0:[ab]SR 1:[a]A 2:. ...; edges 0>1 1>2 2>2".
func (s *NFASpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d states;", len(s.States))
	for i, st := range s.States {
		if st.Any {
			fmt.Fprintf(&b, " %d:.", i)
		} else {
			fmt.Fprintf(&b, " %d:[%s]", i, st.Syms)
		}
		if st.Flags&nfa.StartOfData != 0 {
			b.WriteByte('S')
		}
		if st.Flags&nfa.AllInput != 0 {
			b.WriteByte('A')
		}
		if st.Flags&nfa.Report != 0 {
			fmt.Fprintf(&b, "R%d", st.Code)
		}
	}
	b.WriteString("; edges")
	if len(s.Edges) == 0 {
		b.WriteString(" none")
	}
	for i, e := range s.Edges {
		if s.scored() {
			fmt.Fprintf(&b, " %d>%d%+d", e[0], e[1], s.Weights[i])
		} else {
			fmt.Fprintf(&b, " %d>%d", e[0], e[1])
		}
	}
	return b.String()
}

// clone deep-copies the spec so shrink passes can edit candidates freely.
func (s *NFASpec) clone() *NFASpec {
	out := &NFASpec{
		States: make([]StateSpec, len(s.States)),
		Edges:  make([][2]int32, len(s.Edges)),
	}
	for i, st := range s.States {
		out.States[i] = StateSpec{Syms: append([]byte(nil), st.Syms...), Any: st.Any, Flags: st.Flags, Code: st.Code}
	}
	copy(out.Edges, s.Edges)
	if s.scored() {
		out.Weights = append([]int32(nil), s.Weights...)
	}
	return out
}

// genAlphabet is the symbol pool generated automata draw labels from. A
// small alphabet keeps random inputs hitting labels often enough to exercise
// dense frontiers; 'z' is reserved as a guaranteed-miss symbol for
// sparse-match inputs.
var genAlphabet = []byte("abcd")

// RandomSpec generates one random automaton spec from rng. The shape is
// deliberately varied: 1-4 disjoint connected components, each with its own
// fan-out, self-loop rate, all-input (ASG) rate, and symbol-class skew;
// occasionally a component is entirely all-input states (the all-ASG edge
// case), or a single chain (boundary-straddling matches).
func RandomSpec(rng *rand.Rand) *NFASpec {
	spec := &NFASpec{}
	components := 1 + rng.Intn(4)
	for c := 0; c < components; c++ {
		base := int32(len(spec.States))
		size := 1 + rng.Intn(14)
		shape := rng.Intn(5)
		// Per-component symbol skew: a biased subset of the alphabet.
		skew := 1 + rng.Intn(len(genAlphabet))
		randClass := func() []byte {
			var syms []byte
			for _, s := range genAlphabet[:skew] {
				if rng.Intn(3) == 0 {
					syms = append(syms, s)
				}
			}
			if len(syms) == 0 {
				syms = []byte{genAlphabet[rng.Intn(skew)]}
			}
			return syms
		}
		for i := 0; i < size; i++ {
			st := StateSpec{Syms: randClass()}
			switch {
			case shape == 4: // all-ASG component
				st.Flags |= nfa.AllInput
			case i == 0 && rng.Intn(2) == 0:
				st.Flags |= nfa.AllInput
			case rng.Intn(6) == 0:
				st.Flags |= nfa.StartOfData
			case rng.Intn(12) == 0:
				st.Flags |= nfa.AllInput
			}
			if rng.Intn(4) == 0 {
				st.Flags |= nfa.Report
				st.Code = int32(rng.Intn(8))
			}
			spec.States = append(spec.States, st)
		}
		// Make the last state of a chain-shaped component report, so
		// boundary-straddling inputs have something to complete.
		if shape == 3 {
			spec.States[base+int32(size-1)].Flags |= nfa.Report
		}
		edge := func(from, to int32) { spec.Edges = append(spec.Edges, [2]int32{base + from, base + to}) }
		switch shape {
		case 3: // chain: state i -> i+1, matching runs straddle boundaries
			for i := int32(0); i < int32(size-1); i++ {
				edge(i, i+1)
			}
		default: // random fan-out within the component
			fanout := 1 + rng.Intn(3)
			for i := int32(0); i < int32(size); i++ {
				for k := 0; k < rng.Intn(fanout+1); k++ {
					edge(i, int32(rng.Intn(size)))
				}
			}
		}
		// Self-loops model .*-style persistent activity.
		if rng.Intn(2) == 0 {
			q := int32(rng.Intn(size))
			edge(q, q)
		}
	}
	// Builder rejects automata with no start states; anchor state 0.
	if len(spec.States) > 0 {
		hasStart := false
		for _, st := range spec.States {
			if st.Flags&(nfa.StartOfData|nfa.AllInput) != 0 {
				hasStart = true
				break
			}
		}
		if !hasStart {
			spec.States[0].Flags |= nfa.StartOfData
		}
	}
	// A third of the specs are scored.
	if len(spec.Edges) > 0 && rng.Intn(3) == 0 {
		spec.Weights = randomWeights(rng, len(spec.Edges))
	}
	return spec
}

// RandomWideSpec generates the wide profile: about two thousand states — a
// vector of 24 to 40 words — with one or two all-input states, the shape
// on which the bit engine's delta stays sparse in a long vector and is
// carried from batch to batch (RandomSpec's automata fit one or two vector
// words). Only a live region of 24-63 states, scattered over the ID space,
// is reachable; the rest is padding that widens the vectors without
// widening any symbol's range, so the enumeration stays as cheap as on an
// ordinary case. Live states fan out to two or three live successors over
// a one- or two-symbol alphabet: a hot run multiplies the frontier within
// a few symbols and a miss run empties it again, so on RandomInput's
// ordinary inputs frontiers die and are reborn across batches. A block of
// start-of-data states now and then makes the run begin with a large
// frontier.
func RandomWideSpec(rng *rand.Rand) *NFASpec {
	size := 1536 + rng.Intn(1024)
	live := rng.Perm(size)[:24+rng.Intn(40)]
	skew := 1 + rng.Intn(2)
	spec := &NFASpec{States: make([]StateSpec, size)}
	for i := range spec.States {
		spec.States[i].Syms = []byte{genAlphabet[rng.Intn(skew)]}
		// Padding is never enabled; an edge into the live region now and
		// then keeps it in the structural analyses (components, parents).
		if rng.Intn(16) == 0 {
			spec.Edges = append(spec.Edges, [2]int32{int32(i), int32(live[rng.Intn(len(live))])})
		}
	}
	startBlock := 0
	if rng.Intn(3) == 0 {
		startBlock = len(live) / 3
	}
	for i, q := range live {
		st := &spec.States[q]
		switch {
		case i == 0 || i == 1 && rng.Intn(2) == 0:
			st.Flags |= nfa.AllInput
		case i < startBlock:
			st.Flags |= nfa.StartOfData
		}
		if rng.Intn(8) == 0 {
			st.Flags |= nfa.Report
			st.Code = int32(rng.Intn(8))
		}
		for k := 2 + rng.Intn(2); k > 0; k-- {
			spec.Edges = append(spec.Edges, [2]int32{int32(q), int32(live[rng.Intn(len(live))])})
		}
	}
	if rng.Intn(3) == 0 {
		spec.Weights = randomWeights(rng, len(spec.Edges))
	}
	return spec
}

// addLatchStates extends spec with the latch profile: any-byte self-loop
// states, the '.*' shape the bit kernel latches (engine.Bit) and labels over
// genAlphabet never form. One to four are plain; half the time one more
// reports itself, and half the time one is all-input — the two shapes the
// kernel's latchable mask must leave out. The first is entered from a start
// or all-input state and each later one from the one before, so they come on
// one symbol apart; each is also entered from a random state and feeds one,
// landing in whichever components those belong to. The first feeds a
// reporting state of its own besides.
func addLatchStates(rng *rand.Rand, spec *NFASpec) {
	base := len(spec.States)
	var live []int32
	for q, st := range spec.States {
		if st.Flags&(nfa.StartOfData|nfa.AllInput) != 0 {
			live = append(live, int32(q))
		}
	}
	edge := func(from, to int32) {
		spec.Edges = append(spec.Edges, [2]int32{from, to})
		if spec.scored() {
			spec.Weights = append(spec.Weights, randomWeights(rng, 1)...)
		}
	}
	flags := make([]nfa.Flags, 1+rng.Intn(4), 6)
	if rng.Intn(2) == 0 {
		flags = append(flags, nfa.Report)
	}
	if rng.Intn(2) == 0 {
		flags = append(flags, nfa.AllInput)
	}
	prev := live[rng.Intn(len(live))]
	for k, f := range flags {
		q := int32(len(spec.States))
		spec.States = append(spec.States, StateSpec{Any: true, Flags: f, Code: int32(rng.Intn(8))})
		edge(q, q)
		edge(prev, q)
		edge(int32(rng.Intn(base)), q)
		edge(q, int32(rng.Intn(base)))
		if k == 0 {
			spec.States = append(spec.States, StateSpec{
				Syms: []byte{genAlphabet[rng.Intn(len(genAlphabet))]}, Flags: nfa.Report, Code: int32(rng.Intn(8)),
			})
			edge(q, q+1)
		}
		prev = q
	}
}

// randomWeights draws per-edge scores from a deliberately tiny range, so
// negatives, zeros and score ties between competing paths all occur
// constantly (ties are where a wrong max-merge hides).
func randomWeights(rng *rand.Rand, edges int) []int32 {
	w := make([]int32, edges)
	for i := range w {
		w[i] = int32(rng.Intn(8) - 3) // [-3, 4]
	}
	return w
}

// RandomInput generates an adversarial input for the spec: dense-match
// (symbols drawn from the automaton's own labels, so frontiers stay hot),
// sparse-match (mostly the guaranteed-miss symbol), or boundary-straddling
// (label-drawn runs centred on the cut positions the harness will use, so
// matches span segment boundaries).
func RandomInput(rng *rand.Rand, spec *NFASpec) []byte {
	var labels []byte
	for _, st := range spec.States {
		labels = append(labels, st.Syms...)
	}
	if len(labels) == 0 {
		labels = []byte{'a'}
	}
	hot := func() byte { return labels[rng.Intn(len(labels))] }
	size := 1 + rng.Intn(256)
	out := make([]byte, size)
	switch rng.Intn(3) {
	case 0: // dense-match
		for i := range out {
			out[i] = hot()
		}
	case 1: // sparse-match
		for i := range out {
			if rng.Intn(8) == 0 {
				out[i] = hot()
			} else {
				out[i] = 'z'
			}
		}
	default: // boundary-straddling: hot runs across the k-segment cuts
		for i := range out {
			out[i] = 'z'
		}
		for _, k := range segmentCounts {
			for j := 1; j < k; j++ {
				cut := j * size / k
				for p := cut - 4; p < cut+4; p++ {
					if p >= 0 && p < size {
						out[p] = hot()
					}
				}
			}
		}
	}
	return out
}

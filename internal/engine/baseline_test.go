package engine

import (
	"math/rand"
	"sort"
	"testing"

	"pap/internal/nfa"
)

// TestBaselineDecomposition verifies the NFA additivity PAP's simulator
// relies on: for any automaton, seed, and input, the frontier of a full run
// (baseline injected) equals the union of a baseline-free run from the seed
// and a baseline-only run — at every step. Reports decompose the same way.
func TestBaselineDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := randomNFA(rng, 3+rng.Intn(30))
		if len(n.AllInputStates()) == 0 {
			continue // decomposition is trivial without a baseline
		}
		input := randomInput(rng, 60)

		// Pick a random seed among non-start states.
		var seed []nfa.StateID
		for q := 0; q < n.Len(); q++ {
			if rng.Intn(3) == 0 {
				seed = append(seed, nfa.StateID(q))
			}
		}

		full := NewSparse(n)
		full.Reset(seed)
		enum := NewSparse(n)
		enum.SetBaseline(false)
		enum.Reset(seed)
		base := NewSparse(n)
		base.Reset(nil)

		var fullReports, enumReports, baseReports []Report
		for i, sym := range input {
			full.Step(sym, int64(i), func(r Report) { fullReports = append(fullReports, r) })
			enum.Step(sym, int64(i), func(r Report) { enumReports = append(enumReports, r) })
			base.Step(sym, int64(i), func(r Report) { baseReports = append(baseReports, r) })

			union := unionIDs(enum.AppendFrontier(nil), base.AppendFrontier(nil))
			got := sortedIDs(full.AppendFrontier(nil))
			if !equalIDs(union, got) {
				t.Fatalf("trial %d step %d: full=%v, enum∪base=%v", trial, i, got, union)
			}
		}
		if !SameReports(fullReports, append(append([]Report(nil), enumReports...), baseReports...)) {
			t.Fatalf("trial %d: report decomposition failed", trial)
		}
	}
}

// TestNoBaselineSkipsAllInput: with baseline off, all-input states never
// fire, even when reachable as children.
func TestNoBaselineSkipsAllInput(t *testing.T) {
	b := nfa.NewBuilder("t")
	a := b.AddState(nfa.ClassOf('a'), nfa.StartOfData)
	loop := b.AddState(nfa.AnyClass(), nfa.AllInput|nfa.Report)
	b.AddEdge(a, loop)
	n := b.MustBuild()

	e := NewSparse(n)
	e.SetBaseline(false)
	e.Reset([]nfa.StateID{a})
	var reports []Report
	for i, sym := range []byte("aaa") {
		e.Step(sym, int64(i), func(r Report) { reports = append(reports, r) })
	}
	if len(reports) != 0 {
		t.Fatalf("all-input state fired with baseline off: %+v", reports)
	}
	if e.FrontierLen() != 0 {
		t.Fatalf("frontier = %v, want empty (all-input children dropped)", e.AppendFrontier(nil))
	}
}

func unionIDs(a, b []nfa.StateID) []nfa.StateID {
	seen := map[nfa.StateID]bool{}
	var out []nfa.StateID
	for _, q := range a {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	for _, q := range b {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []nfa.StateID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBitBaselineParity: Sparse and Bit agree with baseline off too.
func TestBitBaselineParity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		n := randomNFA(rng, 3+rng.Intn(20))
		var seed []nfa.StateID
		for q := 0; q < n.Len(); q++ {
			if rng.Intn(3) == 0 {
				seed = append(seed, nfa.StateID(q))
			}
		}
		sp := NewSparse(n)
		sp.SetBaseline(false)
		sp.Reset(seed)
		bt := NewBit(n, nil)
		bt.SetBaseline(false)
		bt.Reset(seed)
		input := randomInput(rng, 50)
		for i, sym := range input {
			sp.Step(sym, int64(i), nil)
			bt.Step(sym, int64(i), nil)
			if !sp.FrontierSet().Equal(bt.Enabled()) {
				t.Fatalf("trial %d step %d: engines diverged with baseline off", trial, i)
			}
		}
	}
}

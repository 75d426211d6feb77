package engine

import (
	"context"
	"math/rand"
	"testing"

	"pap/internal/nfa"
)

// buildABC returns the unanchored automaton for pattern "abc" (match
// anywhere), reporting code 9.
func buildABC() *nfa.NFA {
	b := nfa.NewBuilder("abc")
	a := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	s2 := b.AddState(nfa.ClassOf('b'), 0)
	s3 := b.AddReportState(nfa.ClassOf('c'), 0, 9)
	b.AddEdge(a, s2)
	b.AddEdge(s2, s3)
	return b.MustBuild()
}

// buildAnchoredABC returns "^abc".
func buildAnchoredABC() *nfa.NFA {
	b := nfa.NewBuilder("^abc")
	a := b.AddState(nfa.ClassOf('a'), nfa.StartOfData)
	s2 := b.AddState(nfa.ClassOf('b'), 0)
	s3 := b.AddReportState(nfa.ClassOf('c'), 0, 1)
	b.AddEdge(a, s2)
	b.AddEdge(s2, s3)
	return b.MustBuild()
}

func TestRunFindsAllOccurrences(t *testing.T) {
	n := buildABC()
	res := Run(n, []byte("abcxabcabc"))
	want := []int64{2, 6, 9} // offsets of each final 'c'
	if len(res.Reports) != len(want) {
		t.Fatalf("reports = %+v, want offsets %v", res.Reports, want)
	}
	for i, r := range res.Reports {
		if r.Offset != want[i] || r.Code != 9 {
			t.Fatalf("report %d = %+v, want offset %d code 9", i, r, want[i])
		}
	}
}

func TestAnchoredMatchesOnlyAtStart(t *testing.T) {
	n := buildAnchoredABC()
	if res := Run(n, []byte("abcabc")); len(res.Reports) != 1 || res.Reports[0].Offset != 2 {
		t.Fatalf("anchored reports = %+v", res.Reports)
	}
	if res := Run(n, []byte("xabc")); len(res.Reports) != 0 {
		t.Fatalf("anchored matched mid-stream: %+v", res.Reports)
	}
}

func TestOverlappingMatches(t *testing.T) {
	// "aa" anywhere over "aaaa" must report at offsets 1, 2, 3.
	b := nfa.NewBuilder("aa")
	s1 := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	s2 := b.AddReportState(nfa.ClassOf('a'), 0, 0)
	b.AddEdge(s1, s2)
	n := b.MustBuild()
	res := Run(n, []byte("aaaa"))
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %+v, want 3", res.Reports)
	}
	for i, r := range res.Reports {
		if r.Offset != int64(i+1) {
			t.Fatalf("report %d at %d, want %d", i, r.Offset, i+1)
		}
	}
}

func TestSelfLoopStarState(t *testing.T) {
	// /x.*y/ style: x enables a self-looping any-state which enables y.
	b := nfa.NewBuilder("xy")
	x := b.AddState(nfa.ClassOf('x'), nfa.AllInput)
	star := b.AddState(nfa.AnyClass(), 0)
	y := b.AddReportState(nfa.ClassOf('y'), 0, 0)
	b.AddEdge(x, star)
	b.AddEdge(star, star)
	b.AddEdge(star, y)
	b.AddEdge(x, y) // xy with nothing between
	n := b.MustBuild()
	res := Run(n, []byte("x123y..y"))
	// y at 4 (x..y) and y at 7 (star still looping).
	if len(res.Reports) != 2 || res.Reports[0].Offset != 4 || res.Reports[1].Offset != 7 {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

func TestSparseResetAndFrontier(t *testing.T) {
	n := buildABC()
	e := NewSparse(n)
	if e.FrontierLen() != 0 {
		// state 0 is all-input, so the initial frontier excludes it.
		t.Fatalf("initial frontier = %v", e.AppendFrontier(nil))
	}
	e.Step('a', 0, nil)
	if got := e.AppendFrontier(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after 'a': %v", got)
	}
	if got := e.AppendFired(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("fired = %v", got)
	}
	e.Step('z', 1, nil)
	if !e.Dead() {
		t.Fatalf("frontier should be dead after mismatch: %v", e.AppendFrontier(nil))
	}
	// Reset with duplicate and all-input seeds.
	e.Reset([]nfa.StateID{1, 1, 0, 2})
	if e.FrontierLen() != 2 {
		t.Fatalf("reset frontier = %v", e.AppendFrontier(nil))
	}
}

func TestFingerprintMatchesFrontier(t *testing.T) {
	n := buildABC()
	a, b := NewSparse(n), NewSparse(n)
	input := []byte("ababcabc")
	for i, sym := range input {
		a.Step(sym, int64(i), nil)
		b.Step(sym, int64(i), nil)
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("identical runs diverged at %d", i)
		}
		if !equalIDs(sortedIDs(a.AppendFrontier(nil)), sortedIDs(b.AppendFrontier(nil))) {
			t.Fatalf("identical runs hold different frontiers at %d", i)
		}
	}
	// Different frontiers ⇒ (almost surely) different fingerprints.
	b.Reset([]nfa.StateID{2})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different frontiers share a fingerprint")
	}
}

func TestTransitionsCounted(t *testing.T) {
	n := buildABC()
	e := NewSparse(n)
	e.Step('a', 0, nil) // state 0 fires, 1 successor traversed
	if e.Stats().Transitions != 1 {
		t.Fatalf("transitions = %d, want 1", e.Stats().Transitions)
	}
	e.Step('b', 1, nil) // state 1 fires
	if e.Stats().Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", e.Stats().Transitions)
	}
}

func TestRunWithBoundaries(t *testing.T) {
	n := buildABC()
	input := []byte("abcabc")
	res, bounds, _, _ := RunWithBoundaries(context.Background(), n, input, []int{3}, Auto, nil, RunOpts{}, nil)
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if len(bounds) != 1 || bounds[0].Pos != 3 {
		t.Fatalf("bounds = %+v", bounds)
	}
	// At pos 3, input[2]='c' fired state 2; nothing enabled after except
	// the all-input baseline.
	if len(bounds[0].Fired) != 1 || bounds[0].Fired[0] != 2 {
		t.Fatalf("Fired = %v", bounds[0].Fired)
	}
	if len(bounds[0].Enabled) != 0 {
		t.Fatalf("Enabled = %v", bounds[0].Enabled)
	}
}

func TestDedupeAndSameReports(t *testing.T) {
	rs := []Report{{Offset: 5, State: 1}, {Offset: 2, State: 3}, {Offset: 5, State: 1}, {Offset: 2, State: 1}}
	d := DedupeReports(rs)
	if len(d) != 3 {
		t.Fatalf("deduped = %+v", d)
	}
	if d[0].Offset != 2 || d[0].State != 1 || d[2].Offset != 5 {
		t.Fatalf("order wrong: %+v", d)
	}
	if !SameReports(rs, d) {
		t.Fatal("SameReports(rs, dedupe(rs)) = false")
	}
	if SameReports(d, d[:2]) {
		t.Fatal("SameReports with missing report = true")
	}
	if !SameReports(nil, nil) {
		t.Fatal("SameReports(nil, nil) = false")
	}
}

// randomNFA builds a random homogeneous NFA for property tests: small
// alphabet to get dense activity.
func randomNFA(rng *rand.Rand, states int) *nfa.NFA {
	return randomBuilder(rng, states).MustBuild()
}

// randomBuilder is randomNFA before the build, for callers that extend the
// automaton (see addLatchStates). State 0 is a start state.
func randomBuilder(rng *rand.Rand, states int) *nfa.Builder {
	b := nfa.NewBuilder("rand")
	alpha := []byte("abcd")
	for i := 0; i < states; i++ {
		var cls nfa.Class
		for _, s := range alpha {
			if rng.Intn(3) == 0 {
				cls.Add(s)
			}
		}
		if cls.Empty() {
			cls.Add(alpha[rng.Intn(len(alpha))])
		}
		var flags nfa.Flags
		switch rng.Intn(6) {
		case 0:
			flags |= nfa.AllInput
		case 1:
			flags |= nfa.StartOfData
		}
		if rng.Intn(5) == 0 {
			flags |= nfa.Report
		}
		b.AddState(cls, flags)
	}
	if states > 0 {
		b.SetFlags(0, nfa.StartOfData) // ensure at least one start
	}
	for i := 0; i < states; i++ {
		for k := 0; k < rng.Intn(4); k++ {
			b.AddEdge(nfa.StateID(i), nfa.StateID(rng.Intn(states)))
		}
	}
	return b
}

// randomWideBuilder is the wide size class of the property and fuzz tests:
// 1024-4095 states with one or two all-input states, so that — unlike on
// randomNFA's automata, which fit a word or two and have a sixth of their
// states all-input — the bit engine's delta is a few live words of a long
// vector, kept sparse from batch to batch. Two successors per state and
// 'a' in five labels out of eight make runs of 'a' grow the frontier until
// the delta fills half its words; other symbols shrink it.
// It returns the builder, like randomBuilder; state 0 is all-input.
func randomWideBuilder(rng *rand.Rand) *nfa.Builder {
	states := 1024 + rng.Intn(3072)
	allInput := 1 + rng.Intn(2)
	b := nfa.NewBuilder("rand-wide")
	for i := 0; i < states; i++ {
		cls := nfa.ClassOf("abcd"[rng.Intn(4)])
		if rng.Intn(2) == 0 {
			cls.Add('a')
		}
		var flags nfa.Flags
		switch {
		case i < allInput:
			flags |= nfa.AllInput
		case rng.Intn(64) == 0:
			flags |= nfa.StartOfData
		}
		if rng.Intn(5) == 0 {
			flags |= nfa.Report
		}
		b.AddState(cls, flags)
	}
	for i := 0; i < states; i++ {
		b.AddEdge(nfa.StateID(i), nfa.StateID(rng.Intn(states)))
		b.AddEdge(nfa.StateID(i), nfa.StateID(rng.Intn(states)))
	}
	return b
}

// addLatchStates appends the latch profile to an automaton under
// construction: any-byte self-loop states, the '.*' shape the bit kernel
// latches (see Bit.latch) and labels drawn from "abcd" never form. One to
// four are plain; half the time one more reports itself, and half the time
// one is all-input — the two shapes the latchable mask must leave out. The
// first is entered from state 0, a start state in both size classes, and
// each later one from the one before, so they come on one symbol apart; each
// is also entered from a random state and feeds one. The first feeds a
// reporting state of its own besides.
func addLatchStates(b *nfa.Builder, rng *rand.Rand) {
	base := b.Len()
	flags := make([]nfa.Flags, 1+rng.Intn(4), 6)
	if rng.Intn(2) == 0 {
		flags = append(flags, nfa.Report)
	}
	if rng.Intn(2) == 0 {
		flags = append(flags, nfa.AllInput)
	}
	prev := nfa.StateID(0)
	for k, f := range flags {
		q := b.AddState(nfa.AnyClass(), f)
		b.AddEdge(q, q)
		b.AddEdge(prev, q)
		b.AddEdge(nfa.StateID(rng.Intn(base)), q)
		b.AddEdge(q, nfa.StateID(rng.Intn(base)))
		if k == 0 {
			b.AddEdge(q, b.AddState(nfa.ClassOf("abcd"[rng.Intn(4)]), nfa.Report))
		}
		prev = q
	}
}

// fuzzNFA picks the fuzz targets' automaton: randomNFA's narrow class, the
// wide class for one seed in eight, and for another one in eight the latch
// profile on top of either. The choice is a function of the seed rather than
// a draw from rng, so every committed corpus entry keeps the automaton it
// was found on.
func fuzzNFA(rng *rand.Rand, seed int64) *nfa.NFA {
	var b *nfa.Builder
	if uint64(seed)%8 == 0 || uint64(seed)%16 == 12 {
		b = randomWideBuilder(rng)
	} else {
		b = randomBuilder(rng, 2+rng.Intn(64))
	}
	if uint64(seed)%8 == 4 {
		addLatchStates(b, rng)
	}
	return b.MustBuild()
}

func randomInput(rng *rand.Rand, n int) []byte {
	alpha := []byte("abcd")
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return out
}

// TestSparseBitEquivalence: the two engines must agree on fired sets,
// frontiers and reports on random automata and inputs.
func TestSparseBitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := randomNFA(rng, 2+rng.Intn(30))
		tab := NewTables(n)
		sp := NewSparse(n)
		bt := NewBit(n, tab)
		input := randomInput(rng, 60)
		var rsSp, rsBt []Report
		for i, sym := range input {
			sp.Step(sym, int64(i), func(r Report) { rsSp = append(rsSp, r) })
			bt.Step(sym, int64(i), func(r Report) { rsBt = append(rsBt, r) })
			fs := sp.FrontierSet()
			if !fs.Equal(bt.Enabled()) {
				t.Fatalf("trial %d: frontiers diverged at step %d:\nsparse %v\nbit    %v",
					trial, i, fs, bt.Enabled())
			}
		}
		if !SameReports(rsSp, rsBt) {
			t.Fatalf("trial %d: reports diverged:\nsparse %+v\nbit    %+v", trial, rsSp, rsBt)
		}
		if sp.Stats().Transitions != bt.Stats().Transitions {
			t.Fatalf("trial %d: transitions %d vs %d", trial, sp.Stats().Transitions, bt.Stats().Transitions)
		}
	}
}

// TestBoundaryConsistency: the enabled frontier recorded at a cut must be
// reproducible by resetting a fresh engine with it and continuing, giving
// the same reports as the uncut run.
func TestBoundaryConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := randomNFA(rng, 2+rng.Intn(30))
		input := randomInput(rng, 80)
		cut := 1 + rng.Intn(len(input)-1)
		full := Run(n, input)
		e := NewSparse(n)
		var reports []Report
		emit := func(r Report) { reports = append(reports, r) }
		for i := 0; i < cut; i++ {
			e.Step(input[i], int64(i), emit)
		}
		// Resume from the recorded frontier in a fresh engine.
		e2 := NewSparse(n)
		e2.Reset(e.AppendFrontier(nil))
		for i := cut; i < len(input); i++ {
			e2.Step(input[i], int64(i), emit)
		}
		if !SameReports(reports, full.Reports) {
			t.Fatalf("trial %d: split run diverged", trial)
		}
	}
}

// TestRangeSoundness: after consuming σ, the frontier is a subset of
// Range(σ) — the invariant range-guided partitioning rests on (§3.1).
func TestRangeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := randomNFA(rng, 2+rng.Intn(40))
		input := randomInput(rng, 60)
		e := NewSparse(n)
		for i, sym := range input {
			e.Step(sym, int64(i), nil)
			rg := n.Range(sym)
			inRange := make(map[nfa.StateID]bool, len(rg))
			for _, q := range rg {
				inRange[q] = true
			}
			for _, q := range e.AppendFrontier(nil) {
				if !inRange[q] {
					t.Fatalf("trial %d: state %d enabled after %q but not in range", trial, q, sym)
				}
			}
		}
	}
}

// TestPrefixMergePreservesLanguage executes original and compressed
// automata on random inputs and requires identical (offset, code) events.
func TestPrefixMergePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := randomNFA(rng, 2+rng.Intn(30))
		m := nfa.MergeCommonPrefixes(n)
		input := randomInput(rng, 80)
		rn := Run(n, input)
		rm := Run(m, input)
		kn := reportCodeSet(rn.Reports)
		km := reportCodeSet(rm.Reports)
		if len(kn) != len(km) {
			t.Fatalf("trial %d: merged automaton changed events: %d vs %d", trial, len(kn), len(km))
		}
		for k := range kn {
			if !km[k] {
				t.Fatalf("trial %d: merged automaton lost event %+v", trial, k)
			}
		}
	}
}

type offsetCode struct {
	off  int64
	code int32
}

func reportCodeSet(rs []Report) map[offsetCode]bool {
	m := make(map[offsetCode]bool, len(rs))
	for _, r := range rs {
		m[offsetCode{r.Offset, r.Code}] = true
	}
	return m
}

func BenchmarkSparseStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := randomNFA(rng, 512)
	input := randomInput(rng, 4096)
	e := NewSparse(n)
	b.ResetTimer()
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		for j, sym := range input {
			e.Step(sym, int64(j), nil)
		}
	}
}

func BenchmarkBitStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := randomNFA(rng, 512)
	input := randomInput(rng, 4096)
	e := NewBit(n, nil)
	b.ResetTimer()
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		for j, sym := range input {
			e.Step(sym, int64(j), nil)
		}
	}
}

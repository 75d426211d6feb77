package conformance

import (
	"bytes"
	"strings"
	"testing"

	"pap/internal/engine"
	"pap/internal/nfa"
)

// TestOracleHandComputed pins the oracle to hand-computed report sets on a
// tiny automaton: start 'a' -> report 'b', plus an all-input reporter 'c'.
func TestOracleHandComputed(t *testing.T) {
	b := nfa.NewBuilder("hand")
	a0 := b.AddState(nfa.ClassOf('a'), nfa.StartOfData)
	b1 := b.AddReportState(nfa.ClassOf('b'), 0, 1)
	b.AddEdge(a0, b1)
	b.AddReportState(nfa.ClassOf('c'), nfa.AllInput, 2)
	n := b.MustBuild()

	got := OracleRun(n, []byte("abcb"))
	want := []engine.Report{
		{Offset: 1, State: b1, Code: 1}, // "ab" completed
		{Offset: 2, State: 2, Code: 2},  // all-input 'c' at offset 2
	}
	if len(got) != len(want) {
		t.Fatalf("reports = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Start-of-data must not rearm: a second "ab" only reports via nothing
	// (state 0 is dead after step 0).
	if rs := OracleRun(n, []byte("xbab")); len(rs) != 0 {
		t.Fatalf("start-of-data rearmed: %+v", rs)
	}
}

// TestOracleEmptyAndTinyInputs: zero and one-byte inputs run cleanly.
func TestOracleEmptyAndTinyInputs(t *testing.T) {
	b := nfa.NewBuilder("tiny")
	b.AddReportState(nfa.ClassOf('a'), nfa.AllInput, 7)
	n := b.MustBuild()
	if rs := OracleRun(n, nil); len(rs) != 0 {
		t.Fatalf("empty input reported %+v", rs)
	}
	rs := OracleRun(n, []byte("a"))
	if len(rs) != 1 || rs[0].Offset != 0 || rs[0].Code != 7 {
		t.Fatalf("1-byte input = %+v", rs)
	}
}

// TestNewCaseDeterministic: the same seed must regenerate the identical
// case — the property every repro line depends on.
func TestNewCaseDeterministic(t *testing.T) {
	for _, seed := range []int64{1, -7, 123456789} {
		a, err := NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.Spec.String() != b.Spec.String() || !bytes.Equal(a.Input, b.Input) {
			t.Fatalf("seed %d not deterministic", seed)
		}
	}
}

// TestCaseSeedSpread: sweeps from adjacent base seeds share no case seeds.
func TestCaseSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for i := 0; i < 256; i++ {
			s := CaseSeed(base, i)
			if seen[s] {
				t.Fatalf("duplicate case seed %d (base %d, i %d)", s, base, i)
			}
			seen[s] = true
		}
	}
}

// TestShrinkMinimises drives Shrink with a synthetic failure predicate and
// requires a near-minimal result: the shrinker must strip the case down to
// the essence the predicate demands.
func TestShrinkMinimises(t *testing.T) {
	c, err := NewCase(42)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic "bug": any automaton with >= 1 reporting state fails on any
	// input containing >= 2 'a' bytes.
	fails := func(s *NFASpec, in []byte) bool {
		if _, err := s.Build(); err != nil {
			return false
		}
		reports := 0
		for _, st := range s.States {
			if st.Flags&nfa.Report != 0 {
				reports++
			}
		}
		return reports >= 1 && bytes.Count(in, []byte("a")) >= 2
	}
	if !fails(c.Spec, append(c.Input, "aa"...)) {
		t.Skip("seed no longer produces a reporting state; adjust test seed")
	}
	spec, input := Shrink(c.Spec, append(c.Input, "aa"...), fails)
	if !fails(spec, input) {
		t.Fatal("shrunk pair no longer fails")
	}
	if len(input) != 2 {
		t.Errorf("shrunk input = %q, want exactly 2 bytes", input)
	}
	if len(spec.States) > 2 {
		t.Errorf("shrunk spec has %d states, want <= 2: %s", len(spec.States), spec)
	}
	if len(spec.Edges) != 0 {
		t.Errorf("shrunk spec kept edges: %s", spec)
	}
}

// TestHarnessDetectsInjectedBug runs CheckCase against a case whose input
// was tampered with after oracle evaluation — simulated by checking a
// mutated oracle set — and requires a diagnostic. This guards the guard:
// diffReports must actually flag divergences.
func TestHarnessDetectsInjectedBug(t *testing.T) {
	c, err := NewCase(7)
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleRun(c.NFA, c.Input)
	tampered := append([]engine.Report(nil), oracle...)
	tampered = append(tampered, engine.Report{Offset: int64(len(c.Input) + 5), State: 0})
	res := engine.RunEngineOpts(c.NFA, c.Input, engine.Auto, nil, engine.RunOpts{})
	if d := diffReports(tampered, res.Reports); d == "" {
		t.Fatal("diffReports accepted a tampered oracle set")
	}
	if d := diffReports(oracle, res.Reports); d != "" {
		t.Fatalf("unexpected divergence on seed 7: %s", d)
	}
}

// TestFailureReportFormat: the failure report must carry the replay seed,
// the shrunk automaton and the shrunk input — everything §repro needs.
func TestFailureReportFormat(t *testing.T) {
	f := &Failure{
		Seed:      99,
		Invariant: "oracle-vs-run/bit",
		Detail:    "0 reports, want 1",
		Spec:      &NFASpec{States: []StateSpec{{Syms: []byte("a"), Flags: nfa.StartOfData}}},
		Input:     []byte("aa"),
	}
	s := f.String()
	for _, want := range []string{"-conformance.case=99", "oracle-vs-run/bit", `"aa"`, "1 states"} {
		if !strings.Contains(s, want) {
			t.Errorf("failure report missing %q:\n%s", want, s)
		}
	}
}

// TestRunOneKnownGood: a handful of fixed seeds must pass — these double as
// regression anchors for the generator (a generator change that breaks
// determinism shows up here as a sweep-vs-replay mismatch).
func TestRunOneKnownGood(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, CaseSeed(1, 0), CaseSeed(1, 999)} {
		f, err := RunOne(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			t.Fatalf("case %d:\n%s", seed, f)
		}
	}
}

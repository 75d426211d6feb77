package pap

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pap/internal/core"
	"pap/internal/engine"
)

func TestCompileAndMatch(t *testing.T) {
	a, err := Compile("t", []string{"cat", "dog"})
	if err != nil {
		t.Fatal(err)
	}
	got := a.Match([]byte("a cat and a dog"))
	if len(got) != 2 {
		t.Fatalf("matches = %+v", got)
	}
	if got[0].Code != 0 || got[0].Offset != 4 {
		t.Fatalf("first match = %+v", got[0])
	}
	if got[1].Code != 1 || got[1].Offset != 14 {
		t.Fatalf("second match = %+v", got[1])
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("t", []string{"("}); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

func TestCompileRulesCodes(t *testing.T) {
	a, err := CompileRules("t", []Rule{{Pattern: "x", Code: 42}})
	if err != nil {
		t.Fatal(err)
	}
	m := a.Match([]byte("x"))
	if len(m) != 1 || m[0].Code != 42 {
		t.Fatalf("matches = %+v", m)
	}
}

func TestStatsAndRange(t *testing.T) {
	a, err := Compile("t", []string{"abc", "abd"})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.States != 6 || s.ConnectedComponents != 2 || s.ReportingStates != 2 {
		t.Fatalf("stats = %+v", s)
	}
	c := a.Compress()
	if c.Stats().States >= s.States {
		t.Fatalf("compression did not reduce: %d -> %d", s.States, c.Stats().States)
	}
	if a.RangeOf('z') != 0 {
		t.Fatal("range of unused symbol not 0")
	}
	if a.RangeOf('a') == 0 {
		t.Fatal("range of 'a' is 0")
	}
}

func TestWriteDOT(t *testing.T) {
	a, _ := Compile("t", []string{"ab"})
	var sb strings.Builder
	if err := a.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Fatal("not DOT output")
	}
}

func TestHammingAPI(t *testing.T) {
	a, err := Hamming("h", []string{"ACGTACGT"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Match([]byte("ACGAACGT"))) == 0 {
		t.Fatal("1-mismatch window not matched")
	}
	if len(a.Match([]byte("AAAAAAAA"))) != 0 {
		t.Fatal("distant window matched")
	}
	if _, err := Hamming("h", []string{""}, 1); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := Hamming("h", []string{"ACGT"}, -1); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestLevenshteinAPI(t *testing.T) {
	a, err := Levenshtein("l", []string{"ACGTACGT"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Match([]byte("ACGACGT"))) == 0 { // one deletion
		t.Fatal("1-edit window not matched")
	}
	if _, err := Levenshtein("l", []string{"AC"}, 2); err == nil {
		t.Fatal("pattern shorter than distance accepted")
	}
	if _, err := Levenshtein("l", []string{"ACGT"}, -1); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func makeInput(size int, seed int64, inject ...string) []byte {
	rng := rand.New(rand.NewSource(seed))
	alpha := []byte("abcdefgh \n")
	out := make([]byte, 0, size)
	for len(out) < size {
		if len(inject) > 0 && rng.Intn(16) == 0 {
			out = append(out, inject[rng.Intn(len(inject))]...)
			continue
		}
		out = append(out, alpha[rng.Intn(len(alpha))])
	}
	return out[:size]
}

func TestMatchParallelExactAndFaster(t *testing.T) {
	a, err := Compile("t", []string{"attack", "defen[cs]e", "exploi.?t"})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(1<<16, 3, "attack", "defence", "exploit")
	seq := a.Match(input)
	rep, err := a.MatchParallel(input, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.Verified {
		t.Fatal("parallel run not verified")
	}
	if len(rep.Matches) != len(seq) {
		t.Fatalf("parallel %d matches, sequential %d", len(rep.Matches), len(seq))
	}
	for i := range seq {
		if seq[i] != rep.Matches[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, seq[i], rep.Matches[i])
		}
	}
	if rep.Stats.Speedup < 2 {
		t.Fatalf("speedup = %v, want > 2 on 4 ranks", rep.Stats.Speedup)
	}
	if rep.Stats.Segments < 2 || rep.Stats.IdealSpeedup < rep.Stats.Speedup-1e-9 {
		t.Fatalf("stats = %+v", rep.Stats)
	}
	if rep.Stats.ParallelNS <= 0 || rep.Stats.BaselineNS <= rep.Stats.ParallelNS {
		t.Fatalf("times = %+v", rep.Stats)
	}
	if rep.Stats.FalseReportRatio < 1 {
		t.Fatalf("false report ratio %v < 1", rep.Stats.FalseReportRatio)
	}
}

// TestMatchParallelSharesTables: the plan behind MatchParallel runs on the
// Automaton's shared match tables, not on private ones refilled per call.
// After a Match the vectors of that input's symbols exist, and a
// MatchParallel on the same input builds none; on an input with two further
// symbols it adds exactly those — to the Automaton's tables.
func TestMatchParallelSharesTables(t *testing.T) {
	a, err := Compile("t", []string{"abc", "abd"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Engine = EngineBit
	input := makeInput(1<<12, 3, "abc", "abd")
	a.MatchWithInfo(input, EngineBit)
	after := a.tables().Built()
	if after == 0 {
		t.Fatal("a bit-engine Match built no match vector")
	}
	if _, err := a.MatchParallel(input, cfg); err != nil {
		t.Fatal(err)
	}
	if got := a.tables().Built(); got != after {
		t.Fatalf("MatchParallel on an already-matched input built %d match vectors", got-after)
	}
	// Each new symbol follows an 'a', so a live frontier steps it: a byte met
	// on a dead frontier is skipped and never needs its vector.
	wider := append(append([]byte(nil), input...), 'a', 0xfe, 'a', 0xff)
	if _, err := a.MatchParallel(wider, cfg); err != nil {
		t.Fatal(err)
	}
	if got := a.tables().Built(); got != after+2 {
		t.Fatalf("MatchParallel over two new symbols left %d vectors in the automaton's tables, want %d: the plan runs on private tables",
			got, after+2)
	}
}

// TestMatchParallelConfigKnobs: every option Config keeps reaches the core
// run — Ranks and the MaxSegments cap through the plan, Engine and Scoring
// through the core config, which always selects flow enumeration.
func TestMatchParallelConfigKnobs(t *testing.T) {
	a, err := Compile("t", []string{"abc"})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(1<<14, 9, "abc")
	want := a.Match(input)
	for _, c := range []struct {
		cfg      Config
		segments int
	}{
		{Config{Ranks: 1}, 16}, // a one-half-core automaton: 16 replicas per rank
		{Config{Ranks: 2}, 32},
		{Config{Ranks: 2, MaxSegments: 4}, 4},
	} {
		rep, err := a.MatchParallel(input, c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if rep.Stats.Segments != c.segments {
			t.Errorf("%+v: %d segments, want %d", c.cfg, rep.Stats.Segments, c.segments)
		}
		if !reflect.DeepEqual(rep.Matches, want) {
			t.Errorf("%+v: parallel matches differ from Match", c.cfg)
		}
	}
	got := Config{Ranks: 3, MaxSegments: 5, Engine: EngineBit, Scoring: true}.toCore()
	if got.Ranks != 3 || got.MaxSegments != 5 || got.Engine != engine.BitKind || !got.Scored ||
		got.Mode != core.ModeFlows {
		t.Fatalf("toCore dropped an option: %+v", got)
	}
}

// TestConfigFields pins Config's exported fields, so that any growth of the
// public option surface shows up as a diff here.
func TestConfigFields(t *testing.T) {
	want := []string{"Ranks", "MaxSegments", "Engine", "Scoring"}
	var got []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Config fields = %v, want %v", got, want)
	}
}

func TestMatchParallelZeroConfig(t *testing.T) {
	a, _ := Compile("t", []string{"ab"})
	rep, err := a.MatchParallel(makeInput(4096, 5, "ab"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.Verified {
		t.Fatal("not verified")
	}
}

func TestMatchParallelEmptyInputErrors(t *testing.T) {
	a, _ := Compile("t", []string{"ab"})
	if _, err := a.MatchParallel(nil, DefaultConfig(1)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestMNRLAPIRoundTrip(t *testing.T) {
	a, err := Compile("m", []string{"net[0-9]+"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.EncodeMNRL(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeMNRL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("net42 net net7")
	if len(a.Match(in)) != len(b.Match(in)) {
		t.Fatal("MNRL round trip changed behaviour")
	}
}

func TestUnionAPI(t *testing.T) {
	a, _ := CompileRules("a", []Rule{{Pattern: "cat", Code: 1}})
	b, _ := CompileRules("b", []Rule{{Pattern: "dog", Code: 2}})
	u := a.Union(b)
	if u.Stats().ConnectedComponents != 2 {
		t.Fatalf("union CCs = %d", u.Stats().ConnectedComponents)
	}
	m := u.Match([]byte("cat dog"))
	if len(m) != 2 || m[0].Code != 1 || m[1].Code != 2 {
		t.Fatalf("matches = %+v", m)
	}
}

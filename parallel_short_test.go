package pap

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pap/internal/core"
)

// needleRuleset is a needle_requests-like ruleset and corpus: eight
// literals, 'N' then 7..12 of [a-z0-9], over size bytes of 256-byte records
// of lowercase words ending in '\n', every 16th record carrying a needle.
func needleRuleset(tb testing.TB, size int) (*Automaton, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	const lowerNum = "abcdefghijklmnopqrstuvwxyz0123456789"
	pats := make([]string, 8)
	for i := range pats {
		b := []byte{'N'}
		for j := 0; j < 7+(i*5)%6; j++ {
			b = append(b, lowerNum[rng.Intn(len(lowerNum))])
		}
		pats[i] = string(b)
	}
	a, err := Compile("needle", pats)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, 0, size+256)
	for r := 0; len(out) < size; r++ {
		rec := make([]byte, 0, 256)
		for len(rec) < 255 {
			for k := 2 + rng.Intn(8); k > 0; k-- {
				rec = append(rec, byte('a'+rng.Intn(26)))
			}
			rec = append(rec, ' ')
		}
		rec = append(rec[:255], '\n')
		if r%16 == 7 {
			copy(rec[1+rng.Intn(200):], pats[r/16%len(pats)])
		}
		out = append(out, rec...)
	}
	return a, out[:size]
}

// snortRuleset is a snort_sparse-like ruleset and corpus: 100 literals of
// 12..23 alphanumerics, every fifth keeping half its literal and growing a
// class+, [^\n]*lit and class{m,n} tail, over size bytes of binary payload
// (bytes >= 0x80, which start no rule) with a burst of request text about
// every 2 KiB and an occasional rule instance in it.
func snortRuleset(tb testing.TB, size int) (*Automaton, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alnum[rng.Intn(len(alnum))]
		}
		return string(b)
	}
	pats := make([]string, 100)
	for i := range pats {
		l := 12 + (i*7)%12
		if i%5 != 0 {
			pats[i] = word(l)
			continue
		}
		pats[i] = fmt.Sprintf(`%s[%s]+[^\n]*%s[%s]{1,3}%s`, word(l/2), word(4), word(3), word(3), word(2))
	}
	a, err := Compile("snort", pats)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, 0, size+4096)
	for len(out) < size {
		for k := 1024 + rng.Intn(2048); k > 0; k-- {
			out = append(out, byte(0x80+rng.Intn(0x80)))
		}
		out = append(out, "GET /"...)
		if rng.Intn(4) == 0 {
			out = append(out, pats[1+rng.Intn(4)]...)
		}
		out = append(out, strings.ToLower(word(48+rng.Intn(24)))...)
		out = append(out, " HTTP/1.1\r\n"...)
	}
	return a, out[:size]
}

// withoutHostStats drops the one RunStats field that depends on engine
// instances rather than on (plan, segment, input).
func withoutHostStats(s RunStats) RunStats {
	s.EngineSwitches = 0
	return s
}

// TestMatchParallelSharedPlan runs many goroutines of MatchParallel on one
// Automaton — and so on one shared plan — over inputs whose cut symbols
// differ, on both sides of serialMaxInput. Every match set must equal
// Match's, and every modelled RunStats field must be bit-identical to a run
// on a fresh automaton, which plans from nothing. Run it with -race.
func TestMatchParallelSharedPlan(t *testing.T) {
	pats := []string{"attack", "GET /admin", `[0-9][0-9]:[0-9][0-9]`, "x[yz]+w", "q.*r!"}
	a, err := Compile("shared", pats)
	if err != nil {
		t.Fatal(err)
	}
	alphabets := []string{"abcdefgh \n", "xyzw:0123", "qrst!\tuv", "GET /admin"}
	var inputs [][]byte
	for i, alpha := range alphabets {
		for _, size := range []int{128, serialMaxInput, serialMaxInput + 1, 8 << 10} {
			rng := rand.New(rand.NewSource(int64(i*100 + size)))
			in := make([]byte, size)
			for k := range in {
				in[k] = alpha[rng.Intn(len(alpha))]
			}
			copy(in[size/3:], "GET /admin 12:34 xyzw q..r!")
			inputs = append(inputs, in)
		}
	}
	cfgs := []Config{DefaultConfig(1), DefaultConfig(4), {Ranks: 2, MaxSegments: 3, Scoring: true}}

	type want struct {
		matches []Match
		stats   RunStats
	}
	wants := make([][]want, len(inputs))
	cuts := map[byte]bool{}
	for i, in := range inputs {
		for _, cfg := range cfgs {
			fresh, err := Compile("shared", pats)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fresh.MatchParallel(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = append(wants[i], want{a.Match(in), withoutHostStats(rep.Stats)})
			cuts[rep.Stats.CutSymbol] = true
		}
	}
	if len(cuts) < 3 {
		t.Fatalf("the inputs cut on %d symbols; the test needs several", len(cuts))
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < len(inputs)*len(cfgs); k++ {
				i, c := (k+g*5)%len(inputs), (k/len(inputs)+g)%len(cfgs)
				rep, err := a.MatchParallel(inputs[i], cfgs[c])
				if err != nil {
					t.Errorf("input %d, config %d: %v", i, c, err)
					return
				}
				w := wants[i][c]
				if fmt.Sprint(rep.Matches) != fmt.Sprint(w.matches) {
					t.Errorf("input %d, config %d: %d matches, Match has %d", i, c, len(rep.Matches), len(w.matches))
				}
				if got := withoutHostStats(rep.Stats); got != w.stats {
					t.Errorf("input %d, config %d: stats on the shared plan\n%+v\nwant (fresh automaton)\n%+v", i, c, got, w.stats)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatchParallelShortAllocs pins what a 256-byte MatchParallel
// allocates: its plan, its segments with their SVCs and base flows, the
// engines and the report (53 objects). Building the plan's symbol plans or
// profiling ranges again would add to it; so would handing a short input
// to another goroutine.
func TestMatchParallelShortAllocs(t *testing.T) {
	a, input := needleRuleset(t, 256)
	cfg := DefaultConfig(1)
	run := func() {
		rep, err := a.MatchParallel(input, cfg)
		if err != nil || !rep.Stats.Verified {
			t.Fatalf("MatchParallel: %v", err)
		}
	}
	run() // the automaton's tables and shared plan
	const pin = 56
	if allocs := testing.AllocsPerRun(50, run); allocs > pin {
		t.Fatalf("a 256-byte MatchParallel allocates %.0f objects, want at most %d", allocs, pin)
	}
}

// BenchmarkMatchParallelBySize measures where running a parallel match's
// segments on more than the calling goroutine starts to pay: both core
// schedulers over a needle_requests-like and a snort_sparse-like ruleset, at
// 256 B to 64 KiB per call, on one shared plan as MatchParallel runs them.
// The table in DESIGN.md §5b ("Serial means zero goroutines") is its
// output and the evidence for serialMaxInput.
func BenchmarkMatchParallelBySize(b *testing.B) {
	for _, rs := range []struct {
		name  string
		build func(testing.TB, int) (*Automaton, []byte)
	}{{"needle", needleRuleset}, {"snort", snortRuleset}} {
		a, corpus := rs.build(b, 64<<10)
		for _, size := range []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			for _, parallel := range []bool{false, true} {
				sched := "serial"
				if parallel {
					sched = "parallel"
				}
				b.Run(fmt.Sprintf("%s/%dB/%s", rs.name, size, sched), func(b *testing.B) {
					cfg := DefaultConfig(1).toCore()
					cfg.SegmentParallel = parallel
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						off := i * size % len(corpus)
						res, err := core.RunContext(context.Background(), a.plan(), corpus[off:off+size], cfg)
						if err != nil || !res.Correct {
							b.Fatalf("core.RunContext: %v", err)
						}
					}
				})
			}
		}
	}
}

package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/regex"
	"pap/internal/workloads"
)

// The hot-loop benchmarks run the real Table 1 ruleset automata — not
// synthetic rings — over sparse traffic: payloads whose bytes mostly fall
// outside the rulesets' text alphabet (binary/media content scanned by
// text rules), with periodic printable bursts that revive the frontier and
// land occasional matches. This is the regime ROADMAP item 2 targets: the
// frontier spends most of its life on the ASG-only baseline, and the
// per-symbol step loop is pure overhead that the baseline-skip scan and
// the batched kernel exist to remove.

// hotloopAutomaton builds one of the internal/workloads benchmarks at a
// bench-friendly scale.
func hotloopAutomaton(tb testing.TB, name string, scale float64) *nfa.NFA {
	tb.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := spec.Build(scale, 7)
	if err != nil {
		tb.Fatalf("build %s: %v", name, err)
	}
	return n
}

// sparsePayload is mostly high bytes (outside every ruleset's pattern
// alphabet) with a short printable burst every ~2KB so the frontier
// periodically leaves the baseline and real matches occur.
func sparsePayload(rng *rand.Rand, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(0x80 + rng.Intn(0x80))
	}
	burst := []byte("get /index.html http/1.1 host: www.example.com agent: mozilla 5.0\r\n")
	for at := 512; at+len(burst) < size; at += 1536 + rng.Intn(1024) {
		copy(out[at:], burst)
	}
	return out
}

// hotload is one automaton with the input it runs over.
type hotload struct {
	name  string
	n     *nfa.NFA
	input []byte
}

// hotloopLoads returns the BenchmarkHotLoop workloads: two sparse ones and
// the two saturated ones.
func hotloopLoads(tb testing.TB) []hotload {
	rng := rand.New(rand.NewSource(61))
	return []hotload{
		{"intrusion", hotloopAutomaton(tb, "Snort", 0.05), sparsePayload(rng, 1<<16)},
		{"regexsuite", hotloopAutomaton(tb, "Bro217", 0.5), sparsePayload(rng, 1<<16)},
		dotstarLoad(tb, rng),
		signatureLoad(tb, rng),
	}
}

// signatureLoad is the shape of the repository benchmark's clamav_enum:
// fifty long byte signatures over all 256 byte values, two to four literal
// parts joined by fixed gaps '.{n}' and now and then a '.*', over random
// bytes that hold every signature once near the start. From then on every
// '.*' is live for good, so the frontier is some sixty states, nearly all
// of them the latch's constant background, on a vector of about seventy
// words; the step kernel is what the run costs.
func signatureLoad(tb testing.TB, rng *rand.Rand) hotload {
	tb.Helper()
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var patterns []string
	var input []byte
	for i := 0; i < 50; i++ {
		var pat strings.Builder
		for j := 0; j < 2+i%3; j++ {
			if j > 0 {
				if (i+j)%3 == 0 {
					pat.WriteString(".*")
					input = append(input, bytesOf(rng.Intn(8))...)
				} else {
					n := 2 + (i*5+j*3)%14
					fmt.Fprintf(&pat, ".{%d}", n)
					input = append(input, bytesOf(n)...)
				}
			}
			lit := bytesOf(18 + (i*7+j*11)%16)
			for _, c := range lit {
				fmt.Fprintf(&pat, "\\x%02x", c)
			}
			input = append(input, lit...)
		}
		patterns = append(patterns, pat.String())
		input = append(input, bytesOf(16)...)
	}
	n, err := regex.CompilePatterns("signatures", patterns)
	if err != nil {
		tb.Fatal(err)
	}
	return hotload{"signatures", n, append(input, bytesOf(1<<16-len(input))...)}
}

// dotstarLoad is the opposite regime, the shape of the repository
// benchmark's dotstar_dense (bench/ is a module of its own and cannot be
// imported): seventy rules "head.*tail" or "head.*mid.*tail" over printable
// text that opens with every head and mid, so all 105 '.*' states go live
// within the first kilobyte and stay live. Nothing is ever skipped; the step
// kernel does all the work, and what it costs is set by how it treats states
// that can never switch off again (see Bit's latch).
func dotstarLoad(tb testing.TB, rng *rand.Rand) hotload {
	tb.Helper()
	word := func() string {
		b := make([]byte, 5+rng.Intn(3))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	var patterns []string
	var input []byte
	for i := 0; i < 70; i++ {
		parts := []string{word(), word()}
		if i%2 == 1 {
			parts = append(parts, word())
		}
		patterns = append(patterns, strings.Join(parts, ".*"))
		input = append(input, strings.Join(parts[:len(parts)-1], " ")+" "...)
	}
	n, err := regex.CompilePatterns("dotstar", patterns)
	if err != nil {
		tb.Fatal(err)
	}
	for len(input) < 1<<16 {
		// Prose of rule-alphabet words; now and then a tail, which reports.
		if rng.Intn(64) == 0 {
			p := patterns[rng.Intn(len(patterns))]
			input = append(input, p[strings.LastIndexByte(p, '*')+1:]...)
		} else {
			input = append(input, word()...)
		}
		input = append(input, ' ')
	}
	return hotload{"dotstar", n, input}
}

// BenchmarkHotLoop measures the batched hot loop on the sparse intrusion
// (ANMLZoo Snort) and regex-suite (Bro217) workloads and on the saturated
// dotstar and long-signature ones: the scalar sparse engine is the
// pre-vectorization baseline, bit/noskip isolates the batched kernel, and
// bit and auto add the baseline-skip fast path (which never engages on the
// saturated two). The acceptance bars are those of TestHotLoopGuard.
func BenchmarkHotLoop(b *testing.B) {
	loads := hotloopLoads(b)
	variants := []struct {
		name string
		kind engine.Kind
		opts engine.RunOpts
	}{
		{"sparse", engine.SparseKind, engine.RunOpts{}},
		{"bit-noskip", engine.BitKind, engine.RunOpts{DisableBaselineSkip: true}},
		{"bit", engine.BitKind, engine.RunOpts{}},
		{"auto", engine.Auto, engine.RunOpts{}},
	}
	for _, w := range loads {
		b.Run(w.name, func(b *testing.B) {
			tab := engine.NewTables(w.n).BuildAll()
			for _, v := range variants {
				b.Run(v.name, func(b *testing.B) {
					b.SetBytes(int64(len(w.input)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						engine.RunEngineOpts(w.n, w.input, v.kind, tab, v.opts)
					}
				})
			}
		})
	}
}

// TestHotLoopGuard is the CI regression guard on the batched hot loop, one
// floor per regime of BenchmarkHotLoop, each about half the bit/sparse
// ratio measured when it was set. On the sparse intrusion workload the bit
// engine with baseline-skip must stay at least 5x faster than the scalar
// sparse engine (measured headroom is far larger). On the saturated ones
// nothing is skipped and the list walks every live state per symbol, while
// the bit kernel steps only the live delta beside a per-symbol background
// for the latched '.*' states and the all-input ones: dotstar measured
// 60-75x (26x when the kernel still recomputed the latch's vector word by
// word on every symbol), so its floor is 30x; the long signatures 24-38x
// (5x before), so theirs is 12x. The ratios are relative, so the guard is
// hardware-independent. Gated behind PAP_BENCH_GUARD=1 like
// TestQuietRegimeGuard because timing asserts don't belong in the default
// -race matrix.
func TestHotLoopGuard(t *testing.T) {
	if os.Getenv("PAP_BENCH_GUARD") == "" {
		t.Skip("set PAP_BENCH_GUARD=1 to run the hot-loop regression guard")
	}
	loads := hotloopLoads(t)
	for _, g := range []struct {
		load  hotload
		floor float64
	}{
		{loads[0], 5},
		{loads[2], 30},
		{loads[3], 12},
	} {
		v := bestOf(g.load.n, g.load.input, 8, engine.SparseKind, engine.BitKind)
		sparse, bit := v[0], v[1]
		t.Logf("%s: sparse %.2f MB/s, bit %.2f MB/s, ratio %.1fx", g.load.name, sparse, bit, bit/sparse)
		if bit/sparse < g.floor {
			t.Errorf("%s: hot-loop bit/sparse ratio %.2fx fell below the %gx floor (sparse %.2f MB/s, bit %.2f MB/s)",
				g.load.name, bit/sparse, g.floor, sparse, bit)
		}
	}
}

// bestOf returns the best-round throughput (MB/s) of RunEngineOpts per
// kind over tables built once (see bestOfRuns).
func bestOf(n *nfa.NFA, input []byte, rounds int, kinds ...engine.Kind) []float64 {
	tab := engine.NewTables(n).BuildAll()
	runs := make([]func(), len(kinds))
	for i, k := range kinds {
		runs[i] = func() { engine.RunEngineOpts(n, input, k, tab, engine.RunOpts{}) }
	}
	return bestOfRuns(len(input), rounds, runs...)
}

// bestOfRuns returns the best-round throughput (MB/s) of each run over an
// input of size bytes. Rounds are interleaved across runs, so a noisy
// stretch of the host hits all of them, and continue until at least rounds
// are done and a second has been spent: slow automata get their few
// rounds, fast ones enough samples for the minimum to settle. One untimed
// pass per run warms tables and caches first.
func bestOfRuns(size, rounds int, runs ...func()) []float64 {
	best := make([]time.Duration, len(runs))
	begin := time.Now()
	for r := -1; r < rounds || time.Since(begin) < time.Second; r++ {
		for i, run := range runs {
			start := time.Now()
			run()
			if d := time.Since(start); r >= 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	out := make([]float64, len(runs))
	for i, d := range best {
		out[i] = float64(size) / 1e6 / d.Seconds()
	}
	return out
}

// sparseSkip runs the sparse engine over input under the class-scan cursor
// of the bit and auto kinds, collecting its reports as RunEngineOpts does:
// the list-plus-skip engine Auto ran on wide automata with few all-input
// states while the bit engine's batch still paid for its whole vector.
func sparseSkip(n *nfa.NFA, input []byte, tab *engine.Tables) []engine.Report {
	var reports []engine.Report
	c := engine.NewCursor(engine.NewSparse(n), tab.BaselineSkip(), true)
	c.Emit = func(r engine.Report) { reports = append(reports, r) }
	c.Feed(input, 0, 0)
	_ = c.Advance(context.Background(), len(input)) // a cursor that never polls never fails
	return reports
}

// bitAndSparseSkip returns the best-round throughput (MB/s) of the bit
// engine through RunEngineOpts and of sparseSkip.
func bitAndSparseSkip(n *nfa.NFA, input []byte, rounds int) (bit, skip float64) {
	tab := engine.NewTables(n).BuildAll()
	v := bestOfRuns(len(input), rounds,
		func() { engine.RunEngineOpts(n, input, engine.BitKind, tab, engine.RunOpts{}) },
		func() { sparseSkip(n, input, tab) })
	return v[0], v[1]
}

// TestAutoGuard guards the invariant ROADMAP item 3 names — the default is
// never slower than a forced kind: through RunEngineOpts, auto must reach
// 0.8x the better of sparse and bit on the BenchmarkHotLoop workloads
// (narrow automata with a large Active State Group) and on the full-scale
// Snort automaton over its own trace (wide, its Active State Group an
// eighth of its width). On the BenchmarkAutoPolicyBreakEven rows where the
// list once won — literal rules, W of 256 and 1024 words, A of 1, 2 and 4
// all-input states — the bit engine must reach 0.8x the sparse engine under
// the same class-scan cursor (sparseSkip), the list-plus-skip engine Auto
// ran there before the bit engine's batch boundary stopped costing the
// whole vector. Same gate and best-of-N relative timing as
// TestHotLoopGuard.
func TestAutoGuard(t *testing.T) {
	if os.Getenv("PAP_BENCH_GUARD") == "" {
		t.Skip("set PAP_BENCH_GUARD=1 to run the default-engine regression guard")
	}
	snort, err := workloads.Get("Snort")
	if err != nil {
		t.Fatal(err)
	}
	wide := hotloopAutomaton(t, "Snort", 1.0)
	for _, w := range append(hotloopLoads(t), hotload{"snort-1.0", wide, snort.Trace(wide, 1<<14, 7)}) {
		v := bestOf(w.n, w.input, 8, engine.SparseKind, engine.BitKind, engine.Auto)
		sparse, bit, auto := v[0], v[1], v[2]
		t.Logf("%s: sparse %.2f, bit %.2f, auto %.2f MB/s", w.name, sparse, bit, auto)
		if auto < 0.8*max(sparse, bit) {
			t.Errorf("%s: auto %.2f MB/s is below 0.8x the better forced kind (sparse %.2f, bit %.2f)",
				w.name, auto, sparse, bit)
		}
	}
	for _, words := range []int{256, 1024} {
		for _, asg := range []int{1, 2, 4} {
			name := fmt.Sprintf("dotstar=false/W=%d/A=%d", words, asg)
			n, input := breakEvenLoad(t, false, words, asg)
			bit, skip := bitAndSparseSkip(n, input, 8)
			t.Logf("%s: bit %.2f, sparse+skip %.2f MB/s", name, bit, skip)
			if bit < 0.8*skip {
				t.Errorf("%s: bit %.2f MB/s is below 0.8x the sparse engine under the class scan (%.2f)", name, bit, skip)
			}
		}
	}
}

// BenchmarkAutoPolicySweep times the engines on every Table 1 automaton and
// the extras, at scales 0.1 and 1.0, over the benchmark's own trace (see
// policyRow; tables in docs/ENGINES.md). Run with -benchtime 1x.
func BenchmarkAutoPolicySweep(b *testing.B) {
	for _, spec := range append(workloads.All(), workloads.Extras()...) {
		for _, scale := range []float64{0.1, 1.0} {
			b.Run(fmt.Sprintf("%s/scale=%.1f", spec.Name, scale), func(b *testing.B) {
				n, err := spec.Build(scale, 7)
				if err != nil {
					b.Fatal(err)
				}
				policyRow(b, n, spec.Trace(n, 1<<14, 7))
			})
		}
	}
}

// BenchmarkAutoPolicyBreakEven holds the width W and grows the Active
// State Group A, which the Table 1 automata never vary apart: the shape
// where a list engine under the class scan once beat the bit engine, whose
// batch then paid for the whole vector. Each automaton has A
// unanchored rules of twelve random letters — or, with dotstar, of six,
// '.*' and six, whose '.*' stays live once reached — padded to W words
// with anchored 256-letter rules that die on the first byte. The input is
// random letters with one rule planted every two hundred bytes on average,
// so a literal frontier dies within a few bytes of being born while a
// dotstar one lives on. Run with -benchtime 1x.
func BenchmarkAutoPolicyBreakEven(b *testing.B) {
	for _, dotstar := range []bool{false, true} {
		for _, words := range []int{64, 256, 1024} {
			for _, asg := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
				b.Run(fmt.Sprintf("dotstar=%v/W=%d/A=%d", dotstar, words, asg), func(b *testing.B) {
					n, input := breakEvenLoad(b, dotstar, words, asg)
					policyRow(b, n, input)
				})
			}
		}
	}
}

// breakEvenLoad builds one BenchmarkAutoPolicyBreakEven automaton and its
// 16 KiB input.
func breakEvenLoad(tb testing.TB, dotstar bool, words, asg int) (*nfa.NFA, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(7*asg + words)))
	letters := func(k int) string {
		var s strings.Builder
		for i := 0; i < k; i++ {
			s.WriteByte(byte('a' + rng.Intn(26)))
		}
		return s.String()
	}
	var patterns, planted []string
	states := 0
	for i := 0; i < asg; i++ {
		p := letters(12)
		if dotstar {
			p = p[:6] + ".*" + p[6:]
		}
		patterns = append(patterns, p)
		planted = append(planted, strings.ReplaceAll(p, ".*", letters(20)))
		states += len(p)
	}
	for ; states < words*64-300; states += 257 {
		patterns = append(patterns, "^"+letters(256))
	}
	n, err := regex.CompilePatterns("breakeven", patterns)
	if err != nil {
		tb.Fatal(err)
	}
	var input []byte
	for len(input) < 1<<14 {
		if rng.Intn(200) == 0 {
			input = append(input, planted[rng.Intn(len(planted))]...)
		} else {
			input = append(input, byte('a'+rng.Intn(26)))
		}
	}
	return n, input[:1<<14]
}

// policyRow times the sparse engine, the bit engine (which Auto builds)
// and the sparse engine under the class-scan cursor (sparseSkip) over n and
// input, and reports them with the states, all-input states and mean
// frontier length.
func policyRow(b *testing.B, n *nfa.NFA, input []byte) {
	b.ResetTimer()
	var v []float64
	for i := 0; i < b.N; i++ {
		tab := engine.NewTables(n).BuildAll()
		v = bestOfRuns(len(input), 3,
			func() { engine.RunEngineOpts(n, input, engine.SparseKind, tab, engine.RunOpts{}) },
			func() { engine.RunEngineOpts(n, input, engine.BitKind, tab, engine.RunOpts{}) },
			func() { sparseSkip(n, input, tab) })
	}
	b.ReportMetric(float64(n.Len()), "states")
	b.ReportMetric(float64(len(n.AllInputStates())), "all-input")
	golden := engine.RunEngineOpts(n, input, engine.BitKind, nil, engine.RunOpts{})
	b.ReportMetric(float64(golden.SumFrontier)/float64(len(input)), "avg-frontier")
	b.ReportMetric(v[0], "sparse-MB/s")
	b.ReportMetric(v[1], "bit-MB/s")
	b.ReportMetric(v[2], "sparse+skip-MB/s")
}

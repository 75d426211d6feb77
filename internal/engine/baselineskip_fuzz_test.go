package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzBaselineSkip stresses the vectorized batch kernel and the cursor's
// baseline skip against the scalar sparse reference on fuzzer-chosen
// automata, inputs, and window schedules. The fuzz bytes are mapped onto a
// mostly-missing alphabet so the frontier repeatedly decays onto the
// ASG-only baseline — the regime where the skip scanner engages — and
// windows of 1..130 symbols straddle the 64-symbol batch boundary both
// ways. Cursors over a skipping bit engine, a sparse engine under the same
// class-scan skip and a skip-ablated bit engine must agree with the
// reference on every
// observable after every window, including the frontier statistics and
// across baseline on/off flips at window boundaries (a dead frontier with
// the baseline off skips the rest of its window).
func FuzzBaselineSkip(f *testing.F) {
	// Committed corpus (testdata/fuzz/FuzzBaselineSkip) plus inline seeds:
	// skip-class boundary bytes around the 64-symbol batch edge,
	// chunk-straddling all-miss runs, and frontiers that die into the
	// baseline and revive.
	f.Add(int64(5), append(append(bytes.Repeat([]byte("z"), 63), 'a'), bytes.Repeat([]byte("z"), 65)...))
	f.Add(int64(11), bytes.Repeat([]byte("z"), 180))
	f.Add(int64(23), []byte("azzzzazzzzbzzzzczzzzdzzzzazzzza"))
	f.Add(int64(42), []byte("abcdabcdabcdabcd"))
	// Wide class (seed%8 == 0, see fuzzNFA): the bit engine's delta fills
	// its words in the hit runs and dies in the miss runs.
	f.Add(int64(24), bytes.Repeat(append(bytes.Repeat([]byte{0}, 24), bytes.Repeat([]byte{5}, 40)...), 5))
	// Wide class with the latch profile (seed%16 == 12): the '.*' states come
	// on at once and stay on through the miss runs, beside a delta that
	// fills and drains.
	f.Add(int64(444), bytes.Repeat(append(bytes.Repeat([]byte{0}, 24), bytes.Repeat([]byte{5}, 40)...), 5))
	f.Fuzz(func(t *testing.T, seed int64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		rng := rand.New(rand.NewSource(seed))
		n := fuzzNFA(rng, seed)
		// Mostly misses, occasional hits: 'z' is never in a label, so long
		// fuzz runs exercise the skip scan; 'a'..'d' revive the frontier.
		mapped := make([]byte, len(input))
		for i, b := range input {
			mapped[i] = "aabcdzzzzzzzzzzz"[int(b)%16]
		}

		tab := NewTables(n)
		ref := NewSparse(n)
		names := []string{"sparse-ref", "bit-skip", "sparse-skip", "bit-noskip"}
		subs := []Cursor{
			NewWithOpts(BitKind, n, tab, RunOpts{}),
			NewCursor(NewSparse(n), tab.BaselineSkip(), true),
			NewWithOpts(BitKind, n, tab, RunOpts{DisableBaselineSkip: true}),
		}
		all := []Engine{ref}
		for k := range subs {
			all = append(all, subs[k].Engine())
		}

		reports := make([][]Report, len(all))
		emits := make([]EmitFunc, len(all))
		for k := range all {
			k := k
			emits[k] = func(r Report) { reports[k] = append(reports[k], r) }
		}
		for k := range subs {
			subs[k].Emit = emits[k+1]
			subs[k].Feed(mapped, 0, 0)
		}

		var refSum int64
		refMax := 0
		baseline := true
		for i := 0; i < len(mapped); {
			w := 1 + rng.Intn(130)
			if w > len(mapped)-i {
				w = len(mapped) - i
			}
			for j := 0; j < w; j++ {
				ref.Step(mapped[i+j], int64(i+j), emits[0])
				refSum += int64(ref.FrontierLen())
				refMax = max(refMax, ref.FrontierLen())
			}
			i += w
			for k := range subs {
				c := &subs[k]
				if err := c.Advance(context.Background(), i); err != nil || c.Pos() != i {
					t.Fatalf("%s: advanced to %d of %d, err %v", names[k+1], c.Pos(), i, err)
				}
				if c.SumFrontier != refSum || c.MaxFrontier != refMax {
					t.Fatalf("%s after %d symbols: frontier sum %d max %d, reference %d %d",
						names[k+1], i, c.SumFrontier, c.MaxFrontier, refSum, refMax)
				}
			}
			checkAgreement(t, fmt.Sprintf("after %d symbols", i), names, all)
			if rng.Intn(4) == 0 {
				baseline = !baseline
				ref.SetBaseline(baseline)
				for k := range subs {
					subs[k].SetBaseline(baseline)
				}
			}
		}
		for k := 1; k < len(all); k++ {
			if !SameReports(reports[0], reports[k]) {
				t.Fatalf("%s reports diverged from %s:\n%+v\n%+v",
					names[k], names[0], reports[k], reports[0])
			}
		}
		if noSkip := subs[2]; noSkip.BaselineSkipped != 0 || noSkip.PrefilterSkipped != 0 {
			t.Fatalf("skip-ablated cursor skipped %d + %d bytes", noSkip.BaselineSkipped, noSkip.PrefilterSkipped)
		}
	})
}

package engine_test

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"pap/internal/engine"
)

// TestQuietRegimeGuard is the CI regression guard on prefilter throughput:
// on the quiet workload from BenchmarkPrefilterRegime the meta stack must
// stay at least 5x faster than the sparse baseline (the acceptance bar;
// measured headroom when the guard was set was ~44x). The ratio is
// relative, so the guard is hardware-independent. Gated behind
// PAP_BENCH_GUARD=1 because it burns ~2s of wall clock and timing asserts
// don't belong in the default -race matrix.
func TestQuietRegimeGuard(t *testing.T) {
	if os.Getenv("PAP_BENCH_GUARD") == "" {
		t.Skip("set PAP_BENCH_GUARD=1 to run the throughput regression guard")
	}
	n := needleNFA()
	input := quietInput(rand.New(rand.NewSource(23)), 1<<16, 4)
	tab := engine.NewTables(n).BuildAll()

	// Best-of-N wall time per kind: the minimum is the least noisy
	// estimator of the achievable per-run cost.
	measure := func(kind engine.Kind) time.Duration {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < 8; r++ {
			start := time.Now()
			engine.RunEngineOpts(n, input, kind, tab,
				engine.RunOpts{LiteralPrefilter: true})
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	// Warm both paths (table builds, first-touch cache misses) before timing.
	measure(engine.SparseKind)
	measure(engine.MetaKind)

	sparse := measure(engine.SparseKind)
	meta := measure(engine.MetaKind)
	ratio := float64(sparse) / float64(meta)
	t.Logf("quiet regime: sparse %v, meta %v, ratio %.1fx", sparse, meta, ratio)
	if ratio < 5 {
		t.Fatalf("quiet-regime meta/sparse ratio %.2fx fell below the 5x floor (sparse %v, meta %v)",
			ratio, sparse, meta)
	}
}

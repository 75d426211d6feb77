package engine_test

import (
	"context"
	"fmt"
	"testing"

	"pap/internal/conformance"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// narrowStartNFA reports "GT": its start class is the single byte 'G', so
// a prefilter over it is useful.
func narrowStartNFA() *nfa.NFA {
	b := nfa.NewBuilder("narrow")
	root := b.AddState(nfa.ClassOf('G'), nfa.AllInput)
	tail := b.AddState(nfa.ClassOf('T'), 0)
	b.SetFlags(tail, nfa.Report)
	b.AddEdge(root, tail)
	return b.MustBuild()
}

// TestEngineContract holds every kind engine.KindNames() lists to the one
// Engine contract, as the run loops rely on it:
//
//   - StepBatch consumes 1..len(offered) symbols and is lock-step identical
//     to scalar Step — reports, frontier, fingerprint, frontier statistics,
//     Stats — whatever window the caller offers (a single symbol, either
//     side of the bit kernel's 64-symbol batch, everything);
//   - a run that records boundaries equals the run that does not on
//     Reports, Transitions, SumFrontier and MaxFrontier, however densely
//     it is cut;
//   - the prefilter goes with the kind, not the engine: offered under
//     MetaKind for an automaton with a narrow start class, dropped when
//     scoring remaps the kind; and the lazy-DFA kinds surface their cache
//     counters through Stats.
func TestEngineContract(t *testing.T) {
	var cases []*conformance.Case
	for s := int64(0); s < 4; s++ {
		c, err := conformance.NewCase(7000 + s)
		if err != nil {
			t.Fatalf("case %d: %v", s, err)
		}
		cases = append(cases, c)
	}
	narrow := narrowStartNFA()
	quiet := []byte("GTzGTzzzzzGTzzGzTzzzzzzzzzzGTzzzzzzzzzzzzzzzzzzzGT")

	for _, kind := range allKinds(t) {
		t.Run(kind.String(), func(t *testing.T) {
			for _, c := range cases {
				tab := engine.NewTables(c.NFA)
				for _, w := range []int{1, 63, 64, 65, len(c.Input)} {
					runStepDiff(t, c.NFA, tab, c.Input, stepDiffConfig{kind: kind, baseline: true, window: w})
				}

				whole := engine.RunEngineOpts(c.NFA, c.Input, kind, tab, engine.RunOpts{})
				for _, k := range []int{2, 3, 7, len(c.Input)} {
					cuts := conformance.CutsFor(len(c.Input), k)
					at := fmt.Sprintf("seed %d, %d cuts", c.Seed, len(cuts))
					cut, bounds, pos, err := engine.RunWithBoundaries(context.Background(),
						c.NFA, c.Input, cuts, kind, tab, engine.RunOpts{})
					if err != nil || pos != len(c.Input) || len(bounds) != len(cuts) {
						t.Fatalf("%s: pos %d of %d, %d boundaries, err %v", at, pos, len(c.Input), len(bounds), err)
					}
					for i, b := range bounds {
						if b.Pos != cuts[i] {
							t.Fatalf("%s: boundary %d at %d, want %d", at, i, b.Pos, cuts[i])
						}
					}
					sortReports(whole.Reports)
					sortReports(cut.Reports)
					if !equalReports(whole.Reports, cut.Reports) {
						t.Fatalf("%s: reports %v, uncut %v", at, cut.Reports, whole.Reports)
					}
					if cut.Transitions != whole.Transitions || cut.SumFrontier != whole.SumFrontier ||
						cut.MaxFrontier != whole.MaxFrontier {
						t.Fatalf("%s: transitions %d sum %d max %d, uncut %d %d %d", at,
							cut.Transitions, cut.SumFrontier, cut.MaxFrontier,
							whole.Transitions, whole.SumFrontier, whole.MaxFrontier)
					}
				}
			}

			_, pf := engine.NewWithOpts(kind, narrow, nil, engine.RunOpts{})
			if want := kind == engine.MetaKind; (pf != nil) != want {
				t.Fatalf("prefilter offered = %v over a narrow start class, want %v", pf != nil, want)
			}
			if _, pf := engine.NewWithOpts(kind, narrow, nil, engine.RunOpts{Scored: true}); pf != nil {
				t.Fatal("prefilter offered to a scored run")
			}
			res := engine.RunEngineOpts(narrow, quiet, kind, nil, engine.RunOpts{})
			if len(res.Reports) != 5 {
				t.Fatalf("reports = %v, want the five GTs", res.Reports)
			}
			if (res.PrefilterSkipped > 0) != (pf != nil) {
				t.Fatalf("prefilter skipped %d bytes with prefilter offered = %v", res.PrefilterSkipped, pf != nil)
			}
			cached := kind == engine.LazyDFAKind || kind == engine.MetaKind
			if cached && res.Cache.Hits == 0 {
				t.Fatalf("lazy-DFA cache recorded no hits: %+v", res.Cache)
			}
			if !cached && res.Cache != (engine.CacheStats{}) {
				t.Fatalf("cache counters %+v on a kind without a cache", res.Cache)
			}
		})
	}
}

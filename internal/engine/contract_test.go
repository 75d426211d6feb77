package engine_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pap/internal/bitset"
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

// latchNFA is the automaton of the latch lifecycle and the lazy boundary in
// TestEngineContract: 16384 states, so a vector of 256 words with the
// states of interest spread over it, and two all-input states.
//
//	go  'G', all-input   -> l1
//	l1  '.*'             -> l1, t1, b, l3  latchable
//	l3  '.*'             -> l3             latchable, comes on once l1 is latched
//	t1  't', reports     -> l2             reports right after a '.*'
//	l2  '.*'             -> l2, t2, r      latchable, far from l1
//	r   '.*', reports    -> r              stays in the walk: it emits
//	a2  '.*', all-input  -> a2, q          fires only while the baseline is on
//	b   'b'              -> c[0..23]
//	c   '[^z]*'          -> itself         self-loop on a partial class
//	x   '.*'             -> itself         five of them, entered only by a Reset
//
// With everything latched the frontier is {l1, l3, t1, b, l2, t2, r, q}; a
// 'b' adds the 24 c states until a 'z' clears them.
func latchNFA() (n *nfa.NFA, latchable [8]nfa.StateID, burst []nfa.StateID) {
	const (
		goID, l1ID, t1ID, l3ID, rID, a2ID, qID, bID, l2ID, t2ID = 0, 70, 71, 90, 130, 200, 201, 500, 3000, 3001
	)
	notZ := nfa.AnyClass()
	notZ.Remove('z')
	labels := map[int]nfa.Class{
		goID: nfa.ClassOf('G'), l1ID: nfa.AnyClass(), t1ID: nfa.ClassOf('t'), l3ID: nfa.AnyClass(), rID: nfa.AnyClass(),
		a2ID: nfa.AnyClass(), qID: nfa.ClassOf('q'), bID: nfa.ClassOf('b'), l2ID: nfa.AnyClass(), t2ID: nfa.ClassOf('u'),
	}
	flags := map[int]nfa.Flags{goID: nfa.AllInput, a2ID: nfa.AllInput, t1ID: nfa.Report, t2ID: nfa.Report, rID: nfa.Report, qID: nfa.Report}
	for i := 0; i < 24; i++ {
		c := 1000 + 40*i
		labels[c] = notZ
		burst = append(burst, nfa.StateID(c))
	}
	isolated := []nfa.StateID{4000, 5000, 6000, 7000, 8000}
	for _, x := range isolated {
		labels[int(x)] = nfa.AnyClass()
	}
	b := nfa.NewBuilder("latch")
	for q := 0; q < 16384; q++ {
		label, live := labels[q]
		if !live {
			label = nfa.ClassOf('p') // padding, never enabled
		}
		b.AddState(label, flags[q])
	}
	for _, e := range [][2]nfa.StateID{
		{goID, l1ID}, {l1ID, l1ID}, {l1ID, t1ID}, {l1ID, bID}, {l1ID, l3ID}, {l3ID, l3ID}, {t1ID, l2ID},
		{l2ID, l2ID}, {l2ID, t2ID}, {l2ID, rID}, {rID, rID}, {a2ID, a2ID}, {a2ID, qID},
	} {
		b.AddEdge(e[0], e[1])
	}
	for _, x := range isolated {
		b.AddEdge(x, x)
	}
	for _, c := range burst {
		b.AddEdge(bID, c)
		b.AddEdge(c, c)
	}
	latchable = [8]nfa.StateID{l1ID, l3ID, l2ID}
	copy(latchable[3:], isolated)
	return b.MustBuild(), latchable, burst
}

// runLatchLifecycle takes one engine of the kind through everything that
// can happen to a latch (see Bit) — it forms, one '.*' after another, a
// scalar Step runs between two batches, the baseline goes off and on
// mid-run, scoring goes on and off, a Reset replaces the frontier with one
// that lacks the latched states and another with one that holds them, a
// Reset to another seed is followed by one that relatches the set of before
// (whose backgrounds the engine still holds), more latched sets settle than
// the background cache has slots, and a one-step set that enables a
// latchable state it has not latched yet is relatched until it settles —
// offering window symbols per StepBatch call, and holds it after every call
// to a twin of the same kind advanced by scalar Step: reports, fired set,
// enabled set, fingerprint, frontier length and transitions.
func runLatchLifecycle(t *testing.T, kind engine.Kind, window int) {
	t.Helper()
	n, latchable, burst := latchNFA()
	l1, l3, l2 := latchable[0], latchable[1], latchable[2]
	tab := engine.NewTables(n)
	sub, twin := engine.New(kind, n, tab), engine.New(kind, n, tab)
	quiet := strings.Repeat("x", 70)
	off := 0
	// settle is long enough for a latched set to settle (bgSettleSteps).
	settle := quiet + strings.Repeat("x", 300)
	reset := func(seed ...nfa.StateID) func(e engine.Engine) {
		return func(e engine.Engine) { e.Reset(seed) }
	}
	type phase struct {
		name   string
		do     func(e engine.Engine) // applied to both engines before the input
		input  string
		scalar bool
	}
	phases := []phase{
		{name: "latch forms and settles", input: "xxGxxtxxuxq" + settle},
		{name: "burst", input: "b" + quiet},
		{name: "scalar steps between batches", input: "xtxGx", scalar: true},
		{name: "and on", input: "utq" + quiet},
		{name: "baseline off", do: func(e engine.Engine) { e.SetBaseline(false) }, input: "Gq" + quiet},
		{name: "baseline on", do: func(e engine.Engine) { e.SetBaseline(true) }, input: "q" + quiet},
		{name: "scoring on", do: func(e engine.Engine) { engine.SetScoring(e, true) }, input: "xtxuq" + quiet},
		{name: "scoring off", do: func(e engine.Engine) { engine.SetScoring(e, false) }, input: "xtxuq" + quiet},
		{name: "reset without the latched states", do: func(e engine.Engine) { e.Reset(burst) }, input: "tuq" + quiet},
		{name: "reset with a latched state", do: func(e engine.Engine) { e.Reset(append([]nfa.StateID{l1}, burst...)) }, input: "xtxuq" + quiet},
		{name: "burst cleared", input: "z" + quiet},
		{name: "second burst", input: "bxtxuq" + quiet},
		{name: "cleared again", input: "zzGz" + quiet},
		{name: "reset to another seed", do: func(e engine.Engine) { e.Reset(burst[:3]) }, input: "tq" + quiet},
		{name: "relatch the set of before", do: func(e engine.Engine) { e.Reset([]nfa.StateID{l1}) }, input: "xtxuq" + quiet},
		{name: "baseline off after the relatch", do: func(e engine.Engine) { e.SetBaseline(false) }, input: "Gtq"},
		{name: "and on again", do: func(e engine.Engine) { e.SetBaseline(true) }, input: "Gtuq" + quiet},
	}
	// Ten distinct sets settle, more than the cache holds; then {l1}, which
	// enables l3 for one step before l3 latches, is relatched until its own
	// slot settles, so l3 latches out of a cached entry.
	seeds := [][]nfa.StateID{{l2}, {l1}, {l1, l2}, {l3}, {l2, l3}}
	for _, x := range latchable[3:] {
		seeds = append(seeds, []nfa.StateID{x})
	}
	for _, seed := range seeds {
		phases = append(phases, phase{name: fmt.Sprintf("settle the set from %v", seed), do: reset(seed...), input: "tuq" + settle})
	}
	for i := 0; i < 300; i++ {
		phases = append(phases, phase{name: "relatch {l1} alone", do: reset(l1), input: "xq"})
	}
	for _, phase := range phases {
		if phase.do != nil {
			phase.do(sub)
			phase.do(twin)
		}
		input := []byte(phase.input)
		for i := 0; i < len(input); {
			var subReports, twinReports []engine.Report
			subEmit := func(r engine.Report) { subReports = append(subReports, r) }
			twinEmit := func(r engine.Report) { twinReports = append(twinReports, r) }
			hi := len(input)
			if window > 0 && !phase.scalar {
				hi = min(hi, i+window)
			}
			consumed := 1
			if phase.scalar {
				sub.Step(input[i], int64(off), subEmit)
			} else {
				consumed, _, _ = sub.StepBatch(input[i:hi], int64(off), subEmit)
			}
			for j := 0; j < consumed; j++ {
				twin.Step(input[i+j], int64(off+j), twinEmit)
			}
			i += consumed
			off += consumed

			at := fmt.Sprintf("%s/window=%d: %q, after %d symbols", kind, window, phase.name, i)
			sortReports(subReports)
			sortReports(twinReports)
			if !equalReports(subReports, twinReports) {
				t.Fatalf("%s: reports %v, scalar twin %v", at, subReports, twinReports)
			}
			subFired, twinFired := sub.AppendFired(nil), twin.AppendFired(nil)
			slices.Sort(subFired)
			slices.Sort(twinFired)
			if !slices.Equal(subFired, twinFired) {
				t.Fatalf("%s: fired %v, scalar twin %v", at, subFired, twinFired)
			}
			if !sub.FrontierSet().Equal(twin.FrontierSet()) {
				t.Fatalf("%s: enabled %v, scalar twin %v", at, sub.FrontierSet(), twin.FrontierSet())
			}
			if got, want := sub.Fingerprint(), twin.Fingerprint(); got != want {
				t.Fatalf("%s: fingerprint %#x, scalar twin %#x", at, got, want)
			}
			if got, want := sub.FrontierLen(), twin.FrontierLen(); got != want {
				t.Fatalf("%s: frontier length %d, scalar twin %d", at, got, want)
			}
			if got, want := sub.Stats().Transitions, twin.Stats().Transitions; got != want {
				t.Fatalf("%s: transitions %d, scalar twin %d", at, got, want)
			}
		}
	}
}

// runLazyBoundary holds what the bit kernel keeps between StepBatch calls —
// the delta, its summary and the frontier count, with the enabled and
// fired vectors materialised only when read (see engine.Bit) — to a sparse
// engine stepped in lock step. Batches end mid-frontier (as a sparse word
// list and right after a step over whole words), at a death (of either) and
// mid-latch, and after such a batch, its vectors unread, come a scalar
// Step, a baseline toggle, a Reset read before any step and a scored
// batch. At every stop each
// observer — Enabled, Fired, AppendFired, AppendFrontier, Fingerprint,
// FrontierSet, FrontierLen, Dead — must equal the reference, each of them
// in turn read first, before any other observer has materialised a vector.
func runLazyBoundary(t *testing.T, kind engine.Kind) {
	t.Helper()
	n, latchable, burst := latchNFA()
	l1 := latchable[0]
	// One padding state ('p', no edges) in every vector word: a delta that
	// fills all 256 words, so the step passes over whole words.
	var padding []nfa.StateID
	for q := 1; q < n.Len(); q += 64 {
		padding = append(padding, nfa.StateID(q))
	}
	sub, ok := engine.New(kind, n, nil).(*engine.Bit)
	if !ok {
		t.Fatalf("New(%s) is not the bit engine", kind)
	}
	ref := engine.NewSparse(n)
	ids := func(s *bitset.Set) []nfa.StateID {
		var out []nfa.StateID
		s.ForEach(func(i int) bool {
			out = append(out, nfa.StateID(i))
			return true
		})
		return out
	}
	sorted := func(q []nfa.StateID) []nfa.StateID {
		slices.Sort(q)
		return q
	}
	type observer struct {
		name     string
		sub, ref func() any
	}
	observers := []observer{
		{"Enabled", func() any { return ids(sub.Enabled()) }, func() any { return sorted(ref.AppendFrontier(nil)) }},
		{"Fired", func() any { return ids(sub.Fired()) }, func() any { return sorted(ref.AppendFired(nil)) }},
		{"AppendFired", func() any { return sorted(sub.AppendFired(nil)) }, func() any { return sorted(ref.AppendFired(nil)) }},
		{"AppendFrontier", func() any { return sorted(sub.AppendFrontier(nil)) }, func() any { return sorted(ref.AppendFrontier(nil)) }},
		{"Fingerprint", func() any { return sub.Fingerprint() }, func() any { return ref.Fingerprint() }},
		{"FrontierSet", func() any { return ids(sub.FrontierSet()) }, func() any { return ids(ref.FrontierSet()) }},
		{"FrontierLen", func() any { return sub.FrontierLen() }, func() any { return ref.FrontierLen() }},
		{"Dead", func() any { return sub.Dead() }, func() any { return ref.Dead() }},
	}
	stop := 0
	check := func(at string) {
		t.Helper()
		for i := range observers {
			o := observers[(stop+i)%len(observers)]
			if got, want := fmt.Sprint(o.sub()), fmt.Sprint(o.ref()); got != want {
				t.Fatalf("%s %s: %s = %s, reference %s", kind, at, o.name, got, want)
			}
		}
		if got, want := sub.Stats().Transitions, ref.Stats().Transitions; got != want {
			t.Fatalf("%s %s: transitions %d, reference %d", kind, at, got, want)
		}
		stop++
	}
	off := 0
	// advance offers input to one StepBatch call and steps the reference
	// over what it consumed, which must be want symbols; batch checks then.
	advance := func(at, input string, want int) {
		t.Helper()
		var subReports, refReports []engine.Report
		c, _, _ := sub.StepBatch([]byte(input), int64(off), func(r engine.Report) { subReports = append(subReports, r) })
		if c != want {
			t.Fatalf("%s %s: consumed %d of %q, want %d", kind, at, c, input, want)
		}
		for j := 0; j < c; j++ {
			ref.Step(input[j], int64(off+j), func(r engine.Report) { refReports = append(refReports, r) })
		}
		off += c
		sortReports(subReports)
		sortReports(refReports)
		if !equalReports(subReports, refReports) {
			t.Fatalf("%s %s: reports %v, reference %v", kind, at, subReports, refReports)
		}
	}
	batch := func(at, input string, want int) {
		t.Helper()
		advance(at, input, want)
		check(at)
	}
	both := func(do func(e engine.Engine)) {
		do(sub)
		do(ref)
	}
	long := strings.Repeat("x", 100)

	// With the baseline on a2 keeps q enabled: frontiers die with it off.
	both(func(e engine.Engine) { e.SetBaseline(false) })
	both(func(e engine.Engine) { e.Reset(burst) })
	check("after a Reset to the burst")
	batch("mid-frontier", "xxx", 3)
	batch("at a death", "zxxxx", 1)
	batch("dead", "xx", 1)
	both(func(e engine.Engine) { e.Reset(append(slices.Clone(padding), burst...)) })
	check("after a Reset to every word")
	batch("mid-frontier after a step over whole words", "x", 1)
	both(func(e engine.Engine) { e.Reset(padding) })
	batch("at a death over whole words", "pxx", 1)
	both(func(e engine.Engine) { e.Reset(padding) })
	check("after a Reset from a death over whole words")
	batch("at a death over whole words, again", "zxx", 1)
	both(func(e engine.Engine) { e.SetBaseline(true) })
	batch("dead, baseline on", "xx", 2)
	batch("latch forms", "xxGxxtxxuxq", 11)
	batch("mid-latch", long, 64)
	batch("mid-latch, burst", "b"+long, 64)
	advance("mid-latch, burst, unread", long, 64)
	var subR, refR []engine.Report
	sub.Step('t', int64(off), func(r engine.Report) { subR = append(subR, r) })
	ref.Step('t', int64(off), func(r engine.Report) { refR = append(refR, r) })
	off++
	if !equalReports(subR, refR) {
		t.Fatalf("%s scalar Step after a batch: reports %v, reference %v", kind, subR, refR)
	}
	check("scalar Step after a batch")
	batch("batch after a scalar Step", "uq"+long, 64)
	both(func(e engine.Engine) { e.SetBaseline(false) })
	check("baseline off after a batch")
	batch("baseline off", "Gqtu", 4)
	both(func(e engine.Engine) { e.SetBaseline(true) })
	advance("baseline on again", "Gzq", 3)
	both(func(e engine.Engine) { e.Reset(append([]nfa.StateID{l1}, burst[:5]...)) })
	check("Reset right after a latched batch")
	batch("after the Reset", "xtxq", 4)
	both(func(e engine.Engine) { engine.SetScoring(e, true) })
	batch("scored", "xtxuq", 5)
	front := sorted(ref.AppendFrontier(nil))
	if got, want := engine.AppendScoresOf(sub, front, nil), engine.AppendScoresOf(ref, front, nil); !slices.Equal(got, want) {
		t.Fatalf("%s scored batch: scores %v, reference %v", kind, got, want)
	}
	both(func(e engine.Engine) { engine.SetScoring(e, false) })
	batch("scoring off", "b"+long, 64)
	batch("burst cleared", "z"+long, 64)
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
//   - no engine skips: on a dead frontier StepBatch consumes one symbol,
//     as scalar Step does, with the baseline on or off;
//   - the skip goes with the kind, in the cursor NewWithOpts builds: the
//     prefilter under MetaKind for an automaton with a narrow start class,
//     dropped when scoring remaps the kind, and the baseline skip under Bit
//     and Auto unless ablated; and the lazy-DFA kinds surface their cache
//     counters through Stats;
//   - what the bit kernel keeps between calls, its latch, shows in no
//     observable through a run that does everything a caller can do to an
//     engine (runLatchLifecycle), and neither does the delta it carries
//     from one batch to the next with its vectors left stale until read
//     (runLazyBoundary).
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
					runStepDiff(t, c.NFA, tab, c.Input, stepDiffConfig{kind: kind, baseline: true, window: w, raw: true})
				}

				whole := engine.RunEngineOpts(c.NFA, c.Input, kind, tab, engine.RunOpts{})
				for _, k := range []int{2, 3, 7, len(c.Input)} {
					cuts := conformance.CutsFor(len(c.Input), k)
					at := fmt.Sprintf("seed %d, %d cuts", c.Seed, len(cuts))
					cut, bounds, pos, err := engine.RunWithBoundaries(context.Background(),
						c.NFA, c.Input, cuts, kind, tab, engine.RunOpts{}, nil)
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

			// No engine skips: a step that leaves the frontier dead ends
			// the batch, whatever is offered after it, baseline on or off.
			for _, baseline := range []bool{true, false} {
				e, twin := engine.New(kind, narrow, nil), engine.New(kind, narrow, nil)
				e.SetBaseline(baseline)
				twin.SetBaseline(baseline)
				dead := []byte(strings.Repeat("z", 200))
				for i := 0; i < len(dead); i++ {
					if c, sum, peak := e.StepBatch(dead[i:], int64(i), nil); c != 1 || sum != 0 || peak != 0 {
						t.Fatalf("baseline=%v: StepBatch on a dead frontier consumed %d of %d (sum %d, max %d), scalar Step one",
							baseline, c, len(dead)-i, sum, peak)
					}
					twin.Step(dead[i], int64(i), nil)
					if !e.Dead() || e.Stats() != twin.Stats() {
						t.Fatalf("baseline=%v: after %d dead symbols stats %+v, scalar twin %+v", baseline, i+1, e.Stats(), twin.Stats())
					}
				}
			}

			// The skip goes with the kind, in the cursor: the prefilter
			// under MetaKind for an automaton with a narrow start class,
			// the baseline skip under Bit and Auto — and under the lazy
			// DFA and Meta once scoring remaps them to Auto — none under
			// Sparse and the lazy DFA or with the skip ablated.
			res := engine.RunEngineOpts(narrow, quiet, kind, nil, engine.RunOpts{})
			if len(res.Reports) != 5 {
				t.Fatalf("reports = %v, want the five GTs", res.Reports)
			}
			meta, class := kind == engine.MetaKind, kind == engine.BitKind || kind == engine.Auto
			if (res.PrefilterSkipped > 0) != meta || (res.BaselineSkipped > 0) != class {
				t.Fatalf("skipped %d bytes by prefilter and %d by baseline skip", res.PrefilterSkipped, res.BaselineSkipped)
			}
			scored := engine.RunEngineOpts(narrow, quiet, kind, nil, engine.RunOpts{Scored: true})
			if scored.PrefilterSkipped != 0 || (scored.BaselineSkipped > 0) != (kind != engine.SparseKind) {
				t.Fatalf("scored run skipped %d bytes by prefilter and %d by baseline skip", scored.PrefilterSkipped, scored.BaselineSkipped)
			}
			abl := engine.RunEngineOpts(narrow, quiet, kind, nil, engine.RunOpts{DisableBaselineSkip: true})
			if abl.BaselineSkipped != 0 || abl.PrefilterSkipped != res.PrefilterSkipped {
				t.Fatalf("skip-ablated run skipped %d bytes by baseline skip and %d by prefilter, want 0 and %d",
					abl.BaselineSkipped, abl.PrefilterSkipped, res.PrefilterSkipped)
			}
			if kind == engine.BitKind || kind == engine.Auto {
				for _, w := range []int{1, 63, 64, 65, 0} {
					runLatchLifecycle(t, kind, w)
				}
				runLazyBoundary(t, kind)
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

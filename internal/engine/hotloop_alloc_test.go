package engine

import (
	"bytes"
	"context"
	"testing"

	"pap/internal/nfa"
)

// TestStepBatchAllocs pins the batched kernel at zero allocations per pass:
// after one warm-up pass has published the lazy match vectors, the
// automaton's backgrounds and the CSR successor arrays, batching an input
// through a live frontier must touch only preallocated engine state — also
// when the frontier holds '.*' states, every pass forms the latch anew, and
// a Reset to another seed in between drops it: the relatched set finds its
// background entries in the engine's cache, so no pass builds one.
func TestStepBatchAllocs(t *testing.T) {
	b := nfa.NewBuilder("a.*a")
	head := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	gap := b.AddState(nfa.AnyClass(), 0)
	tail := b.AddReportState(nfa.ClassOf('a'), 0, 1)
	b.AddEdge(head, gap)
	b.AddEdge(gap, gap)
	b.AddEdge(gap, tail)
	// a.*.*b, with the 'b' right after the second '.*' reporting: a
	// latchable successor of a latched state, and a reporting background.
	c := nfa.NewBuilder("a.*.*b")
	head = c.AddState(nfa.ClassOf('a'), nfa.AllInput)
	g1, g2 := c.AddState(nfa.AnyClass(), 0), c.AddState(nfa.AnyClass(), 0)
	tail = c.AddReportState(nfa.ClassOf('b'), 0, 1)
	c.AddEdge(head, g1)
	c.AddEdge(g1, g1)
	c.AddEdge(g1, g2)
	c.AddEdge(g2, g2)
	c.AddEdge(g2, tail)
	for name, n := range map[string]*nfa.NFA{"fanout": fanoutNFA(256), "latch": b.MustBuild(), "cascade": c.MustBuild()} {
		e := NewBit(n, NewTables(n))
		// Hits keep the frontier live (every state matches 'a'); interleaved
		// misses force the frontier-death path inside the kernel too.
		input := bytes.Repeat([]byte("aaaaaaazab"), 64)
		emit := func(Report) {}
		pass := func() {
			for i := 0; i < len(input); {
				c, _, _ := e.StepBatch(input[i:], int64(i), emit)
				i += c
			}
		}
		run := func() {
			e.Reset(n.StartStates())
			pass()
			e.Reset([]nfa.StateID{nfa.StateID(n.Len() - 1)})
			pass()
		}
		run() // warm-up: lazy tables, CSR arrays, skip scanner, backgrounds
		if name == "fanout" {
			if e.bg != nil {
				t.Fatal("fanout: a background cache without a latch")
			}
		} else if e.latchTrans == 0 || e.bg == nil {
			t.Fatalf("%s: the '.*' states never latched", name)
		}
		// A miss claims a slot for another set: no slot may change its set
		// across the measured runs, and the relatched set's halves are built.
		var sets [bgSlotCount]uint64
		if e.bg != nil {
			settled := false
			for i, s := range e.bg.slots {
				sets[i] = s.fp
				settled = settled || s.steps >= bgSettleSteps && len(s.ents) > 0
			}
			if !settled {
				t.Fatalf("%s: no latched set settled with its background built", name)
			}
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("%s: StepBatch allocates %.1f objects per pass, want 0", name, allocs)
		}
		if e.bg != nil {
			for i, s := range e.bg.slots {
				if s.fp != sets[i] {
					t.Fatalf("%s: a relatched set missed its background cache", name)
				}
			}
		}
	}
}

// TestScoringOffAllocs pins the unscored hot path at zero allocations with
// the scoring machinery compiled in: even on a *scored* automaton (edge
// weights present), an engine that never enables score tracking must touch
// no score arrays and allocate nothing per pass.
func TestScoringOffAllocs(t *testing.T) {
	b := nfa.NewBuilder("scored-fanout")
	root := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	for i := 0; i < 256; i++ {
		id := b.AddReportState(nfa.ClassOf('a'), 0, int32(i))
		b.AddScoredEdge(root, id, int32(i%7-3))
	}
	n := b.MustBuild()
	if !n.Scored() {
		t.Fatal("automaton should be scored")
	}
	e := NewBit(n, NewTables(n))
	input := bytes.Repeat([]byte("aaaaaaaz"), 64)
	emit := func(Report) {}
	run := func() {
		for i := 0; i < len(input); {
			c, _, _ := e.StepBatch(input[i:], int64(i), emit)
			i += c
		}
	}
	run() // warm-up: lazy tables, CSR arrays, skip scanner
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("scoring-off StepBatch allocates %.1f objects per pass, want 0", allocs)
	}
}

// TestBaselineSkipScanAllocs pins the cursor's baseline skip at zero
// allocations: a dead frontier scanning past a long out-of-class run must
// not allocate, however many stops the run is advanced in.
func TestBaselineSkipScanAllocs(t *testing.T) {
	n := fanoutNFA(64)
	tab := NewTables(n)
	c := NewWithOpts(BitKind, n, tab, RunOpts{})
	c.Engine().Step('z', 0, nil) // kill the start frontier: 'z' is out of class
	if !c.Engine().Dead() {
		t.Fatal("frontier still live after a guaranteed miss")
	}
	input := bytes.Repeat([]byte("z"), 4096)
	ctx := context.Background()
	run := func() {
		c.Feed(input, 0, 0)
		for stop := 1; stop <= len(input); stop *= 2 {
			if err := c.Advance(ctx, stop); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if c.BaselineSkipped == 0 {
		t.Fatal("baseline skip never engaged on an all-miss input")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("baseline-skip scan allocates %.1f objects per pass, want 0", allocs)
	}
}

package core

import (
	"math/rand"
	"testing"

	"pap/internal/ap"
	"pap/internal/nfa"
	"pap/internal/regex"
)

// quietPlan plans a literal ruleset over size bytes in which no match gets
// past its first byte, cut where nothing is enabled: no segment has an
// enumeration flow, so flow 0 is the sole live flow of every round of every
// segment, stepping a few symbols after each 'a', 'e' or 'x' — one byte in
// sixteen — and scanning the rest.
func quietPlan(tb testing.TB, size, segments int) (*Plan, []byte) {
	tb.Helper()
	n, err := regex.CompilePatterns("quiet", []string{"attack", "GET /admin", "etc/passwd", "xy{2,4}z"})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	input := make([]byte, size)
	for i := range input {
		input[i] = "bfhjloqruv"[rng.Intn(10)]
		if rng.Intn(16) == 0 {
			input[i] = "aex"[rng.Intn(3)]
		}
	}
	cfg := testConfig(1)
	cfg.MaxSegments = segments
	p, err := NewPlan(n, input, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if p.Segments != segments || p.MaxFlows() != 1 {
		tb.Fatalf("quiet plan has %d segments and %d flows, want %d and 1", p.Segments, p.MaxFlows(), segments)
	}
	return p, input
}

// TestExecuteAllocs pins what a round costs the host when nothing happens
// in it: with a sole live flow per round, the allocations of one Execute
// are those of its set-up and must not grow with the input. A hand-off of
// each flow-round to another goroutine — a closure, a channel send, a
// WaitGroup — is five allocations a round, 80 000 more for the longer input
// here.
func TestExecuteAllocs(t *testing.T) {
	allocs := func(size int) float64 {
		p, input := quietPlan(t, size, 16)
		return testing.AllocsPerRun(3, func() {
			if res, err := p.Execute(input); err != nil || !res.Correct {
				t.Fatalf("Execute: %v", err)
			}
		})
	}
	short, long := allocs(64<<10), allocs(1<<20)
	t.Logf("allocs per Execute at 16 segments: %.0f for 64 KiB, %.0f for 1 MiB", short, long)
	if long-short >= 64 {
		t.Fatalf("allocations grow with the input: %.0f for 64 KiB, %.0f for 1 MiB", short, long)
	}
}

// convergenceFixture builds a segment with n alive enumeration flows whose
// SVC contexts and fingerprints are chosen by the caller.
func convergenceFixture(t testing.TB, contexts [][]nfa.StateID, fps []uint64) *segmentResult {
	t.Helper()
	seg := &segmentResult{svc: ap.NewSVC(1)}
	asg := &flowRun{id: 0, asg: true, alive: true}
	asg.svcID = seg.svc.AllocOverflow(nil, 0)
	seg.flows = []*flowRun{asg}
	for i, ctx := range contexts {
		f := &flowRun{id: i + 1, alive: true, attrib: []attribEntry{{CC: 0, Unit: i, From: 0}}}
		f.svcID = seg.svc.AllocOverflow(ctx, fps[i])
		seg.flows = append(seg.flows, f)
	}
	return seg
}

// TestConvergenceAllocs is the regression test for the convergence
// bugfix: the old implementation built a map[uint64][]*flowRun on every
// check and re-walked sorted slices even when fingerprints already
// disagreed. The rewrite must run allocation-free at steady state.
func TestConvergenceAllocs(t *testing.T) {
	n := mustCompile(t, "abc")
	p, err := NewPlan(n, []byte("abcabcabcabc"), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct fingerprints: nothing merges, so repeated checks exercise
	// the grouping walk without mutating the segment.
	contexts := make([][]nfa.StateID, 12)
	fps := make([]uint64, 12)
	for i := range contexts {
		contexts[i] = []nfa.StateID{nfa.StateID(i), nfa.StateID(i + 100)}
		fps[i] = uint64(i + 1)
	}
	seg := convergenceFixture(t, contexts, fps)
	p.convergeFlows(seg, 0) // warm-up: grows the reusable scratch once
	allocs := testing.AllocsPerRun(100, func() {
		p.convergeFlows(seg, 0)
	})
	if allocs != 0 {
		t.Fatalf("convergeFlows allocates %.1f objects per check, want 0", allocs)
	}
}

// TestConvergenceFingerprintFastPath verifies the rewritten convergence
// check decision-for-decision: identical vectors merge (lowest-id flow
// survives, absorbed flows record their survivor), hash collisions are
// detected by the full compare, counted, and kept separate, and the
// comparator-access accounting matches the paper's model (one access per
// alive vector visited plus one per merge candidate).
func TestConvergenceFingerprintFastPath(t *testing.T) {
	n := mustCompile(t, "abc")
	p, err := NewPlan(n, []byte("abcabcabcabc"), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	seg := convergenceFixture(t,
		[][]nfa.StateID{
			{1, 2}, // flow 1: merges with flow 2
			{1, 2}, // flow 2
			{3, 4}, // flow 3: same fp as flow 4, different vector (collision)
			{3, 5}, // flow 4
			{7},    // flow 5: unique fp, untouched
		},
		[]uint64{10, 10, 20, 20, 30},
	)
	p.convergeFlows(seg, 42)

	if seg.Convergences != 1 {
		t.Fatalf("Convergences = %d, want 1", seg.Convergences)
	}
	if seg.FPCollisions != 1 {
		t.Fatalf("FPCollisions = %d, want 1", seg.FPCollisions)
	}
	// 5 alive vectors visited + 1 candidate in each of the two hash groups.
	if seg.ConvCompares != 7 {
		t.Fatalf("ConvCompares = %d, want 7", seg.ConvCompares)
	}
	f1, f2, f3, f4, f5 := seg.flows[1], seg.flows[2], seg.flows[3], seg.flows[4], seg.flows[5]
	if !f1.alive || f2.alive || !f2.merged || f2.mergedInto != f1 {
		t.Fatalf("merge bookkeeping wrong: f1.alive=%v f2.alive=%v f2.mergedInto=%p",
			f1.alive, f2.alive, f2.mergedInto)
	}
	if seg.svc.Valid(f2.svcID) {
		t.Fatal("merged flow's SVC entry not freed")
	}
	if !f3.alive || !f4.alive || f3.mergedInto != nil || f4.mergedInto != nil {
		t.Fatal("collision pair was merged")
	}
	if !f5.alive {
		t.Fatal("singleton flow killed")
	}
	// The survivor inherits the absorbed flow's attribution at the merge
	// offset.
	found := false
	for _, a := range f1.attrib {
		if a.Unit == 1 && a.From == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("survivor attribution missing merged unit: %+v", f1.attrib)
	}
}

// TestSubsetOfSorted covers the allocation-free probe helper.
func TestSubsetOfSorted(t *testing.T) {
	b := []nfa.StateID{1, 3, 5, 7, 9}
	cases := []struct {
		a    []nfa.StateID
		want bool
	}{
		{nil, true},
		{[]nfa.StateID{3}, true},
		{[]nfa.StateID{9, 1, 5}, true},
		{[]nfa.StateID{2}, false},
		{[]nfa.StateID{1, 3, 5, 7, 9, 11}, false},
		{[]nfa.StateID{7, 8}, false},
	}
	for i, c := range cases {
		if got := subsetOfSorted(c.a, b); got != c.want {
			t.Errorf("case %d: subsetOfSorted(%v) = %v, want %v", i, c.a, got, c.want)
		}
	}
}

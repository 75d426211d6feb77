package nfa

import (
	"strings"
	"testing"
)

// buildLinear returns the 3-state automaton for the anchored pattern "abc".
func buildLinear(t *testing.T) *NFA {
	t.Helper()
	b := NewBuilder("abc")
	a := b.AddState(ClassOf('a'), StartOfData)
	s2 := b.AddState(ClassOf('b'), 0)
	s3 := b.AddReportState(ClassOf('c'), 0, 7)
	b.AddEdge(a, s2)
	b.AddEdge(s2, s3)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuilderBasics(t *testing.T) {
	n := buildLinear(t)
	if n.Len() != 3 || n.Edges() != 2 {
		t.Fatalf("Len=%d Edges=%d, want 3/2", n.Len(), n.Edges())
	}
	if n.Name() != "abc" {
		t.Fatalf("Name = %q", n.Name())
	}
	if got := n.StartStates(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("StartStates = %v", got)
	}
	if len(n.AllInputStates()) != 0 {
		t.Fatal("unexpected all-input states")
	}
	if got := n.ReportingStates(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ReportingStates = %v", got)
	}
	if n.State(2).ReportCode != 7 {
		t.Fatalf("ReportCode = %d", n.State(2).ReportCode)
	}
	if got := n.Succ(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Succ(0) = %v", got)
	}
	if got := n.Pred(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Pred(2) = %v", got)
	}
}

func TestBuilderDedupesEdges(t *testing.T) {
	b := NewBuilder("dup")
	a := b.AddState(AnyClass(), StartOfData)
	c := b.AddState(AnyClass(), 0)
	b.AddEdge(a, c)
	b.AddEdge(a, c)
	b.AddEdge(a, a)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Succ(a); len(got) != 2 {
		t.Fatalf("Succ = %v, want deduped to 2", got)
	}
}

// TestBuildCSRLayout pins the adjacency layout: Succ, SuccScores and Pred
// are capacity-clipped windows of flat arrays that SuccCSR exposes, parents
// are sorted, every array has its exact length, and the built automaton
// shares nothing with its builder.
func TestBuildCSRLayout(t *testing.T) {
	b := NewBuilder("csr")
	for i := 0; i < 5; i++ {
		b.AddState(ClassOf('a'), StartOfData)
	}
	b.AddScoredEdge(3, 1, 2)
	b.AddScoredEdge(0, 1, 5)
	b.AddScoredEdge(0, 1, 7) // duplicate: the maximum score survives
	b.AddEdge(0, 4)
	b.AddEdge(2, 1)
	n := b.MustBuild()

	off, succ := n.SuccCSR()
	if len(off) != n.Len()+1 || len(succ) != n.Edges() || n.Edges() != 4 || cap(succ) != 4 {
		t.Fatalf("SuccCSR: %d offsets, %d edges (cap %d), Edges() = %d", len(off), len(succ), cap(succ), n.Edges())
	}
	for q := 0; q < n.Len(); q++ {
		s, w, p := n.Succ(StateID(q)), n.SuccScores(StateID(q)), n.Pred(StateID(q))
		if cap(s) != len(s) || cap(w) != len(w) || cap(p) != len(p) {
			t.Fatalf("state %d: accessor slices not capacity-clipped (%d/%d, %d/%d, %d/%d)",
				q, len(s), cap(s), len(w), cap(w), len(p), cap(p))
		}
		if len(s) != int(off[q+1]-off[q]) || len(w) != len(s) {
			t.Fatalf("state %d: Succ has %d entries, scores %d, offsets say %d", q, len(s), len(w), off[q+1]-off[q])
		}
	}
	if s, w := n.Succ(0), n.SuccScores(0); len(s) != 2 || s[0] != 1 || s[1] != 4 || w[0] != 7 || w[1] != 0 {
		t.Fatalf("Succ(0) = %v scores %v, want [1 4] [7 0]", s, w)
	}
	if p := n.Pred(1); len(p) != 3 || p[0] != 0 || p[1] != 2 || p[2] != 3 {
		t.Fatalf("Pred(1) = %v, want [0 2 3]", p)
	}
	if cap(n.states) != len(n.states) {
		t.Fatalf("states keeps builder slack: len %d cap %d", len(n.states), cap(n.states))
	}
	b.SetFlags(0, Report)
	if n.State(0).Flags&Report != 0 {
		t.Fatal("built automaton shares its states with the builder")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("expected error for empty automaton")
	}
	b := NewBuilder("nostart")
	b.AddState(AnyClass(), 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for automaton with no start states")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	b := NewBuilder("x")
	b.AddState(AnyClass(), StartOfData)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.AddEdge(0, 5)
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder("cc")
	// Component 0: 0 -> 1 -> 2 (2 -> 0 back edge).
	s0 := b.AddState(ClassOf('a'), StartOfData)
	s1 := b.AddState(ClassOf('b'), 0)
	s2 := b.AddState(ClassOf('c'), 0)
	b.AddEdge(s0, s1)
	b.AddEdge(s1, s2)
	b.AddEdge(s2, s0)
	// Component 1: 3 -> 4.
	s3 := b.AddState(ClassOf('x'), AllInput)
	s4 := b.AddState(ClassOf('y'), 0)
	b.AddEdge(s3, s4)
	// Component 2: isolated state 5.
	b.AddState(ClassOf('z'), StartOfData)
	n := b.MustBuild()

	ids, count := n.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("component 0 split: %v", ids)
	}
	if ids[3] != ids[4] || ids[3] == ids[0] || ids[5] == ids[0] || ids[5] == ids[3] {
		t.Fatalf("bad component ids: %v", ids)
	}
	if n.CCOf(4) != ids[3] {
		t.Fatal("CCOf mismatch")
	}
}

func TestRange(t *testing.T) {
	// 0:'a' -> {1,2};  3:'a' -> {2};  4:'b' -> {0}
	b := NewBuilder("range")
	s0 := b.AddState(ClassOf('a'), StartOfData)
	s1 := b.AddState(ClassOf('p'), 0)
	s2 := b.AddState(ClassOf('q'), 0)
	s3 := b.AddState(ClassOf('a'), 0)
	s4 := b.AddState(ClassOf('b'), 0)
	b.AddEdge(s0, s1)
	b.AddEdge(s0, s2)
	b.AddEdge(s3, s2)
	b.AddEdge(s4, s0)
	n := b.MustBuild()

	ra := n.Range('a')
	if len(ra) != 2 || ra[0] != 1 || ra[1] != 2 {
		t.Fatalf("Range('a') = %v, want [1 2]", ra)
	}
	rb := n.Range('b')
	if len(rb) != 1 || rb[0] != 0 {
		t.Fatalf("Range('b') = %v, want [0]", rb)
	}
	if n.RangeSize('z') != 0 {
		t.Fatalf("Range('z') should be empty")
	}
	// Cached second call returns same content.
	if got := n.Range('a'); len(got) != 2 {
		t.Fatalf("cached Range = %v", got)
	}
	rs := n.RangeStatsAll()
	if rs.Min != 0 || rs.Max != 2 {
		t.Fatalf("RangeStats = %+v", rs)
	}
}

func TestParentGroups(t *testing.T) {
	// Two 'a'-labelled parents with identical child sets must fold into one
	// group; a third with a different child set stays separate.
	b := NewBuilder("pg")
	p1 := b.AddState(ClassOf('a'), StartOfData)
	p2 := b.AddState(ClassOf('a'), StartOfData)
	p3 := b.AddState(ClassOf('a'), StartOfData)
	c1 := b.AddState(ClassOf('x'), 0)
	c2 := b.AddState(ClassOf('y'), 0)
	b.AddEdge(p1, c1)
	b.AddEdge(p1, c2)
	b.AddEdge(p2, c1)
	b.AddEdge(p2, c2)
	b.AddEdge(p3, c2)
	n := b.MustBuild()

	groups := n.ParentGroups('a')
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	var big, small *ParentGroup
	for i := range groups {
		if len(groups[i].Seed) == 2 {
			big = &groups[i]
		} else {
			small = &groups[i]
		}
	}
	if big == nil || small == nil {
		t.Fatalf("groups = %+v", groups)
	}
	if len(big.Parents) != 2 {
		t.Fatalf("folded group parents = %v", big.Parents)
	}
	if len(small.Parents) != 1 || small.Parents[0] != p3 {
		t.Fatalf("small group = %+v", small)
	}
	if got := n.ParentGroups('z'); len(got) != 0 {
		t.Fatalf("ParentGroups('z') = %v", got)
	}
}

func TestParentGroupSingleCC(t *testing.T) {
	// A parent and its children are in one component by construction.
	b := NewBuilder("cc1")
	p := b.AddState(ClassOf('a'), StartOfData)
	c := b.AddState(ClassOf('b'), 0)
	b.AddEdge(p, c)
	q := b.AddState(ClassOf('a'), StartOfData)
	d := b.AddState(ClassOf('c'), 0)
	b.AddEdge(q, d)
	n := b.MustBuild()
	for _, g := range n.ParentGroups('a') {
		for _, s := range g.Seed {
			if n.CCOf(s) != g.CC {
				t.Fatalf("seed %d outside group CC", s)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	n := buildLinear(t)
	st := n.ComputeStats()
	if st.States != 3 || st.Edges != 2 || st.CCs != 1 || st.Reporting != 1 || st.StartOfDta != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteDOT(t *testing.T) {
	n := buildLinear(t)
	var sb strings.Builder
	if err := n.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "n0 ->", "doublecircle", "R7"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestUnion(t *testing.T) {
	b1 := NewBuilder("one")
	s1 := b1.AddState(ClassOf('a'), AllInput)
	r1 := b1.AddReportState(ClassOf('b'), 0, 1)
	b1.AddEdge(s1, r1)
	n1 := b1.MustBuild()

	b2 := NewBuilder("two")
	s2 := b2.AddState(ClassOf('x'), StartOfData)
	r2 := b2.AddReportState(ClassOf('y'), 0, 2)
	b2.AddEdge(s2, r2)
	n2 := b2.MustBuild()

	u := Union(n1, n2)
	if u.Len() != 4 || u.Edges() != 2 {
		t.Fatalf("union: %d states %d edges", u.Len(), u.Edges())
	}
	if _, ccs := u.ConnectedComponents(); ccs != 2 {
		t.Fatalf("union CCs = %d, want 2", ccs)
	}
	if len(u.StartStates()) != 1 || len(u.AllInputStates()) != 1 {
		t.Fatalf("start lists wrong: %v %v", u.StartStates(), u.AllInputStates())
	}
	codes := map[int32]bool{}
	for _, q := range u.ReportingStates() {
		codes[u.State(q).ReportCode] = true
	}
	if !codes[1] || !codes[2] {
		t.Fatalf("report codes lost: %v", codes)
	}
}

package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"pap/internal/nfa"
)

// allASGNFA builds an automaton consisting only of all-input states — the
// pure Active State Group shape (every state re-enabled every step), which
// has no start-of-data states and an always-empty enumeration frontier.
func allASGNFA() *nfa.NFA {
	b := nfa.NewBuilder("all-asg")
	q0 := b.AddReportState(nfa.ClassOf('a'), nfa.AllInput, 1)
	q1 := b.AddReportState(nfa.ClassOf('b'), nfa.AllInput, 2)
	b.AddEdge(q0, q1)
	b.AddEdge(q1, q0)
	return b.MustBuild()
}

// TestRunEdgeInputs: empty and 1-byte inputs must run cleanly on every
// backend, with and without boundary recording.
func TestRunEdgeInputs(t *testing.T) {
	ns := map[string]*nfa.NFA{
		"all-asg": allASGNFA(),
		"chain": func() *nfa.NFA {
			b := nfa.NewBuilder("chain")
			q0 := b.AddState(nfa.ClassOf('a'), nfa.StartOfData)
			q1 := b.AddReportState(nfa.ClassOf('b'), 0, 1)
			b.AddEdge(q0, q1)
			return b.MustBuild()
		}(),
	}
	for name, n := range ns {
		for _, kind := range []Kind{SparseKind, BitKind, Auto} {
			res := RunEngineOpts(n, nil, kind, nil, RunOpts{})
			if len(res.Reports) != 0 || res.Transitions != 0 {
				t.Errorf("%s/%s: empty input produced %+v", name, kind, res)
			}
			res, bounds, _, _ := RunWithBoundaries(context.Background(), n, []byte("a"), nil, kind, nil, RunOpts{}, nil)
			if len(bounds) != 0 {
				t.Errorf("%s/%s: boundaries on cut-free run: %+v", name, kind, bounds)
			}
			if name == "all-asg" && len(res.Reports) != 1 {
				t.Errorf("%s/%s: 1-byte input reports = %+v, want 1", name, kind, res.Reports)
			}
		}
	}
}

// TestAllASGAcrossEngines: on a pure-ASG automaton the enumeration frontier
// stays empty (all activity is baseline), every engine agrees, and reports
// still flow — the degenerate case the deactivation logic leans on.
func TestAllASGAcrossEngines(t *testing.T) {
	n := allASGNFA()
	input := []byte("abbaab")
	var want []Report
	for _, kind := range []Kind{SparseKind, BitKind, Auto} {
		e := New(kind, n, nil)
		var got []Report
		for i, sym := range input {
			e.Step(sym, int64(i), func(r Report) { got = append(got, r) })
			if e.FrontierLen() != 0 || !e.Dead() {
				t.Fatalf("%s: enumeration frontier non-empty on all-ASG automaton", kind)
			}
		}
		if kind == SparseKind {
			want = got
			if len(want) != len(input) {
				t.Fatalf("reports = %d, want one per symbol", len(want))
			}
			continue
		}
		if !SameReports(want, got) {
			t.Fatalf("%s reports diverged from sparse: %+v vs %+v", kind, got, want)
		}
	}
}

// TestBoundaryAtEveryPosition: cuts at every interior position of a short
// input — the densest possible segmentation — must record consistent golden
// state everywhere.
func TestBoundaryAtEveryPosition(t *testing.T) {
	b := nfa.NewBuilder("loop")
	q0 := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	q1 := b.AddReportState(nfa.ClassOf('a', 'b'), 0, 3)
	b.AddEdge(q0, q1)
	b.AddEdge(q1, q1)
	n := b.MustBuild()

	input := []byte("ababa")
	cuts := []int{1, 2, 3, 4}
	// onCut sees every boundary as the run passes it, in cut order.
	var seen []int
	res, bounds, _, _ := RunWithBoundaries(context.Background(), n, input, cuts, Auto, nil, RunOpts{},
		func(b Boundary) error { seen = append(seen, b.Pos); return nil })
	if len(bounds) != len(cuts) {
		t.Fatalf("%d boundaries, want %d", len(bounds), len(cuts))
	}
	if !slices.Equal(seen, cuts) {
		t.Fatalf("onCut saw cuts %v, want %v", seen, cuts)
	}
	// An error from onCut stops the run at that cut.
	stop := errors.New("stop")
	_, short, pos, err := RunWithBoundaries(context.Background(), n, input, cuts, Auto, nil, RunOpts{},
		func(b Boundary) error {
			if b.Pos == 2 {
				return stop
			}
			return nil
		})
	if err != stop || pos != 2 || len(short) != 2 {
		t.Fatalf("stopped run: err %v, pos %d, %d boundaries; want the stop error at 2 with 2", err, pos, len(short))
	}
	// Resume from each boundary and finish the input; the tail reports must
	// match the golden run's tail.
	for _, bd := range bounds {
		e := NewSparse(n)
		e.Reset(bd.Enabled)
		var tail []Report
		for p := bd.Pos; p < len(input); p++ {
			e.Step(input[p], int64(p), func(r Report) { tail = append(tail, r) })
		}
		var want []Report
		for _, r := range res.Reports {
			if r.Offset >= int64(bd.Pos) {
				want = append(want, r)
			}
		}
		if !SameReports(want, tail) {
			t.Fatalf("resume at %d: tail %+v, want %+v", bd.Pos, tail, want)
		}
	}
}

package core

import (
	"testing"

	"pap/internal/nfa"
)

// edgeNFA is a small two-component automaton with both start kinds.
func edgeNFA(t *testing.T) *nfa.NFA {
	t.Helper()
	b := nfa.NewBuilder("edge")
	q0 := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	q1 := b.AddReportState(nfa.ClassOf('b'), 0, 1)
	b.AddEdge(q0, q1)
	q2 := b.AddState(nfa.ClassOf('x'), nfa.StartOfData)
	q3 := b.AddReportState(nfa.ClassOf('y'), 0, 2)
	b.AddEdge(q2, q3)
	b.AddEdge(q3, q3)
	return b.MustBuild()
}

// allASGNFA is an automaton of only all-input states: no start-of-data
// states, no enumeration activity, every flow identical to the baseline.
func allASGNFA(t *testing.T) *nfa.NFA {
	t.Helper()
	b := nfa.NewBuilder("all-asg")
	q0 := b.AddReportState(nfa.ClassOf('a'), nfa.AllInput, 1)
	q1 := b.AddReportState(nfa.ClassOf('b'), nfa.AllInput, 2)
	b.AddEdge(q0, q1)
	b.AddEdge(q1, q0)
	return b.MustBuild()
}

// TestRunTinyInputs: 1-byte inputs and inputs shorter than the requested
// segment count must degrade gracefully (fewer or single segments), never
// panic, and stay exact.
func TestRunTinyInputs(t *testing.T) {
	n := edgeNFA(t)
	for _, tc := range []struct {
		name  string
		input string
		segs  int
	}{
		{"one-byte", "b", 4},
		{"shorter-than-k", "abab", 16},
		{"equal-to-k", "abababab", 8},
		{"boundary-heavy", "xyababab", 7},
	} {
		cfg := DefaultConfig(1)
		cfg.MaxSegments = tc.segs
		cfg.TDMQuantum = 2
		cfg.Workers = 1
		res, err := Run(n, []byte(tc.input), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Plan.Segments > len(tc.input) {
			t.Errorf("%s: %d segments for %d bytes", tc.name, res.Plan.Segments, len(tc.input))
		}
	}
}

// TestRunEmptyInputRejected: empty input must error cleanly, not panic.
func TestRunEmptyInputRejected(t *testing.T) {
	if _, err := Run(edgeNFA(t), nil, DefaultConfig(1)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRunAllASG: a pure-ASG automaton parallelizes with empty enumeration
// plans (every boundary range is all-input states only); flows deactivate
// immediately and composition must still be exact.
func TestRunAllASG(t *testing.T) {
	n := allASGNFA(t)
	input := []byte("ababbaabab, abba! abab? abbaabab")
	for _, segs := range []int{2, 5, 16} {
		cfg := DefaultConfig(1)
		cfg.MaxSegments = segs
		cfg.TDMQuantum = 2
		cfg.Workers = 2
		res, err := Run(n, input, cfg)
		if err != nil {
			t.Fatalf("segs=%d: %v", segs, err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("segs=%d: %v", segs, err)
		}
	}
}

// Package nfa defines the homogeneous non-deterministic finite automaton
// model used throughout the repository, together with the structural
// analyses the Parallel Automata Processor relies on: symbol ranges,
// connected components, parent groups, and common-prefix compression.
//
// A homogeneous NFA (the "ANML" representation of the Micron AP) labels
// each state with one symbol class; all transitions into a state implicitly
// carry that state's label. Execution semantics (see package engine): a
// state fires at step t if it is enabled and the input symbol matches its
// label; firing reports (if the state reports) and enables its children for
// step t+1. All-input start states are enabled at every step; start-of-data
// states only at step 0.
package nfa

import (
	"fmt"
	"sort"
	"sync"
)

// StateID identifies a state within one NFA.
type StateID int32

// Flags describe per-state roles.
type Flags uint8

const (
	// StartOfData marks a state enabled at position 0 only.
	StartOfData Flags = 1 << iota
	// AllInput marks a state enabled at every position (ANML "start on all
	// input"); these implement unanchored match-anywhere patterns and are
	// the core of the paper's Active State Group.
	AllInput
	// Report marks an accepting state; firing emits a report event.
	Report
)

// State is the immutable description of one homogeneous-NFA state.
type State struct {
	Label Class
	Flags Flags
	// ReportCode identifies which rule/pattern this reporting state belongs
	// to (the AP's output-region report code). Zero for non-reporting states.
	ReportCode int32
}

// NFA is an immutable homogeneous automaton. Build one with a Builder.
type NFA struct {
	name   string
	states []State

	// Adjacency, stored once in CSR form: the children of q are
	// succ[succOff[q]:succOff[q+1]], sorted and deduplicated, and its parents
	// pred[predOff[q]:predOff[q+1]], likewise. Both offset arrays have
	// Len()+1 entries. succW holds the per-edge scores, parallel to succ
	// edge for edge; it is nil for an unscored automaton. Two flat arrays
	// per direction instead of a slice header and an allocation per state:
	// engines walk them directly (see SuccCSR).
	succOff []int32
	succ    []StateID
	succW   []int32
	predOff []int32
	pred    []StateID

	startOfData []StateID
	allInput    []StateID

	// lazily computed analyses, each computed once under its sync.Once so
	// that one compiled NFA can be shared by concurrent planners
	// (compile-once, share-everywhere) and read lock-free afterwards.
	// Engines only read precomputed fields and never touch these.
	ccOnce   sync.Once
	cc       []int32
	ccCount  int
	rangeTab []rangeEntry
}

type rangeEntry struct {
	once   sync.Once
	states []StateID // sorted union of children of all σ-labelled states
}

// Name returns the automaton's name (for reporting).
func (n *NFA) Name() string { return n.name }

// Len returns the number of states.
func (n *NFA) Len() int { return len(n.states) }

// State returns the description of state q.
func (n *NFA) State(q StateID) State { return n.states[q] }

// Label returns the symbol class of state q.
func (n *NFA) Label(q StateID) Class { return n.states[q].Label }

// Succ returns the children of q. The returned slice must not be modified.
func (n *NFA) Succ(q StateID) []StateID {
	lo, hi := n.succOff[q], n.succOff[q+1]
	return n.succ[lo:hi:hi]
}

// Pred returns the parents of q. The returned slice must not be modified.
func (n *NFA) Pred(q StateID) []StateID {
	lo, hi := n.predOff[q], n.predOff[q+1]
	return n.pred[lo:hi:hi]
}

// SuccCSR returns the successor adjacency as the flat arrays the NFA stores:
// the children of q are succ[off[q]:off[q+1]]. Hot loops that expand many
// states per step index these directly instead of calling Succ per state.
// Neither slice may be modified.
func (n *NFA) SuccCSR() (off []int32, succ []StateID) { return n.succOff, n.succ }

// Scored reports whether any transition carries a score annotation. Unscored
// automata pay nothing for the scoring machinery: succW stays nil and every
// execution path keeps its score-free fast path.
func (n *NFA) Scored() bool { return n.succW != nil }

// SuccScores returns the per-transition scores parallel to Succ(q), or nil
// for an unscored automaton. The returned slice must not be modified.
func (n *NFA) SuccScores(q StateID) []int32 {
	if n.succW == nil {
		return nil
	}
	lo, hi := n.succOff[q], n.succOff[q+1]
	return n.succW[lo:hi:hi]
}

// StartStates returns the start-of-data states. Callers must not modify it.
func (n *NFA) StartStates() []StateID { return n.startOfData }

// AllInputStates returns the all-input (always re-enabled) states.
func (n *NFA) AllInputStates() []StateID { return n.allInput }

// Edges returns the total number of transitions.
func (n *NFA) Edges() int { return len(n.succ) }

// ReportingStates returns all states with the Report flag, ascending.
func (n *NFA) ReportingStates() []StateID {
	var out []StateID
	for q := range n.states {
		if n.states[q].Flags&Report != 0 {
			out = append(out, StateID(q))
		}
	}
	return out
}

// Builder incrementally constructs an NFA.
type Builder struct {
	name   string
	states []State
	succ   [][]StateID
	succW  [][]int32 // parallel to succ; nil until the first scored edge
}

// NewBuilder returns an empty builder for an automaton with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Len returns the number of states added so far.
func (b *Builder) Len() int { return len(b.states) }

// AddState appends a state and returns its ID.
func (b *Builder) AddState(label Class, flags Flags) StateID {
	b.states = append(b.states, State{Label: label, Flags: flags})
	b.succ = append(b.succ, nil)
	if b.succW != nil {
		b.succW = append(b.succW, nil)
	}
	return StateID(len(b.states) - 1)
}

// AddReportState appends a reporting state carrying the given report code.
func (b *Builder) AddReportState(label Class, flags Flags, code int32) StateID {
	id := b.AddState(label, flags|Report)
	b.states[id].ReportCode = code
	return id
}

// SetFlags adds flags to an existing state.
func (b *Builder) SetFlags(q StateID, f Flags) { b.states[q].Flags |= f }

// SetReportCode sets the report code of an existing state.
func (b *Builder) SetReportCode(q StateID, code int32) { b.states[q].ReportCode = code }

// AddEdge adds a transition from → to. Duplicates are removed at Build time.
func (b *Builder) AddEdge(from, to StateID) {
	if int(from) >= len(b.states) || int(to) >= len(b.states) || from < 0 || to < 0 {
		panic(fmt.Sprintf("nfa: AddEdge(%d,%d) out of range (%d states)", from, to, len(b.states)))
	}
	b.succ[from] = append(b.succ[from], to)
	if b.succW != nil {
		b.succW[from] = append(b.succW[from], 0)
	}
}

// AddScoredEdge adds a transition from → to annotated with a score. Scores
// accumulate along a path (tropical max-plus semantics: a state's score is
// the maximum over incoming paths of the sum of edge scores); duplicate
// edges keep the maximum score at Build time. The first scored edge switches
// the whole automaton to scored form — unannotated edges score 0.
func (b *Builder) AddScoredEdge(from, to StateID, score int32) {
	if b.succW == nil {
		b.succW = make([][]int32, len(b.states))
		for q := range b.succ {
			b.succW[q] = make([]int32, len(b.succ[q]))
		}
	}
	b.AddEdge(from, to)
	b.succW[from][len(b.succW[from])-1] = score
}

// Build finalizes the automaton: edges are sorted and deduplicated into the
// CSR adjacency, parent lists are derived, and start-state lists are
// extracted. Every array of the result is allocated at its exact length and
// none is shared with the builder. Build returns an error if the automaton
// has no states or no start states.
func (b *Builder) Build() (*NFA, error) {
	if len(b.states) == 0 {
		return nil, fmt.Errorf("nfa %q: no states", b.name)
	}
	ns := len(b.states)
	n := &NFA{
		name:    b.name,
		states:  append(make([]State, 0, ns), b.states...),
		succOff: make([]int32, ns+1),
		predOff: make([]int32, ns+1),
	}
	edges := 0
	for from, children := range b.succ {
		if b.succW == nil {
			b.succ[from] = dedupeIDs(children)
		} else {
			b.succ[from], b.succW[from] = dedupeScoredIDs(children, b.succW[from])
		}
		edges += len(b.succ[from])
	}
	n.succ = make([]StateID, 0, edges)
	if b.succW != nil {
		n.succW = make([]int32, 0, edges)
	}
	for from, children := range b.succ {
		n.succOff[from] = int32(len(n.succ))
		n.succ = append(n.succ, children...)
		if b.succW != nil {
			n.succW = append(n.succW, b.succW[from]...)
		}
		for _, to := range children {
			n.predOff[to+1]++
		}
	}
	n.succOff[ns] = int32(edges)
	for q := 0; q < ns; q++ {
		n.predOff[q+1] += n.predOff[q]
	}
	// Parents arrive in ascending order of from, so each list is sorted.
	n.pred = make([]StateID, edges)
	fill := append(make([]int32, 0, ns), n.predOff[:ns]...)
	for from := 0; from < ns; from++ {
		for _, to := range n.Succ(StateID(from)) {
			n.pred[fill[to]] = StateID(from)
			fill[to]++
		}
	}
	for q, s := range n.states {
		if s.Flags&StartOfData != 0 {
			n.startOfData = append(n.startOfData, StateID(q))
		}
		if s.Flags&AllInput != 0 {
			n.allInput = append(n.allInput, StateID(q))
		}
	}
	if len(n.startOfData)+len(n.allInput) == 0 {
		return nil, fmt.Errorf("nfa %q: no start states", b.name)
	}
	n.rangeTab = make([]rangeEntry, 256)
	return n, nil
}

// MustBuild is Build that panics on error, for use in generators and tests
// where the construction is known to be valid.
func (b *Builder) MustBuild() *NFA {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

func dedupeIDs(ids []StateID) []StateID {
	if len(ids) <= 1 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// dedupeScoredIDs is dedupeIDs for a scored edge list: the (id, score) pairs
// are sorted by id and duplicate edges keep the maximum score (max-plus
// semantics — a parallel edge can only improve a path, never worsen it).
func dedupeScoredIDs(ids []StateID, scores []int32) ([]StateID, []int32) {
	if len(ids) <= 1 {
		return ids, scores
	}
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return ids[idx[i]] < ids[idx[j]] })
	outIDs := make([]StateID, 0, len(ids))
	outW := make([]int32, 0, len(ids))
	for _, i := range idx {
		if len(outIDs) > 0 && ids[i] == outIDs[len(outIDs)-1] {
			if scores[i] > outW[len(outW)-1] {
				outW[len(outW)-1] = scores[i]
			}
			continue
		}
		outIDs = append(outIDs, ids[i])
		outW = append(outW, scores[i])
	}
	return outIDs, outW
}

// Union returns a new automaton containing disjoint copies of a and b
// (their components never interact; report codes are preserved as-is, so
// callers combining independently numbered rulesets should offset codes
// first). The result is named after a.
func Union(a, b *NFA) *NFA {
	bl := NewBuilder(a.name)
	copyInto := func(src *NFA) StateID {
		base := StateID(bl.Len())
		for q := 0; q < src.Len(); q++ {
			s := src.states[q]
			id := bl.AddState(s.Label, s.Flags)
			bl.SetReportCode(id, s.ReportCode)
		}
		for q := 0; q < src.Len(); q++ {
			w := src.SuccScores(StateID(q))
			for i, c := range src.Succ(StateID(q)) {
				if w != nil {
					bl.AddScoredEdge(base+StateID(q), base+c, w[i])
				} else {
					bl.AddEdge(base+StateID(q), base+c)
				}
			}
		}
		return base
	}
	copyInto(a)
	copyInto(b)
	out, err := bl.Build()
	if err != nil {
		panic(err) // cannot happen: inputs were valid automata
	}
	return out
}

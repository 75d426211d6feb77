package nfa

import "sort"

// ConnectedComponents returns, for each state, the ID of its (undirected)
// connected component, and the number of components. Components are the
// "disconnected sub-graphs" of §3.3.1: patterns that share no states. The
// result is computed once and cached; safe for concurrent use.
func (n *NFA) ConnectedComponents() (ids []int32, count int) {
	n.ccOnce.Do(n.computeCC)
	return n.cc, n.ccCount
}

// computeCC fills the component table.
func (n *NFA) computeCC() {
	ids := make([]int32, len(n.states))
	for i := range ids {
		ids[i] = -1
	}
	var stack []StateID
	count := 0
	for root := range n.states {
		if ids[root] != -1 {
			continue
		}
		id := int32(count)
		count++
		stack = append(stack[:0], StateID(root))
		ids[root] = id
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range n.Succ(q) {
				if ids[c] == -1 {
					ids[c] = id
					stack = append(stack, c)
				}
			}
			for _, p := range n.Pred(q) {
				if ids[p] == -1 {
					ids[p] = id
					stack = append(stack, p)
				}
			}
		}
	}
	n.cc, n.ccCount = ids, count
}

// CCOf returns the connected-component ID of state q.
func (n *NFA) CCOf(q StateID) int32 {
	ids, _ := n.ConnectedComponents()
	return ids[q]
}

// Range returns the range of symbol σ (§3.1): the sorted union of the
// children of every state whose label matches σ. During execution, after
// consuming σ the enabled set is always a subset of Range(σ) ∪ AllInput.
// The result is computed once per symbol and cached; callers must not
// modify it. Safe for concurrent use, and lock-free once computed.
func (n *NFA) Range(sym byte) []StateID {
	e := &n.rangeTab[sym]
	e.once.Do(func() { e.states = n.computeRange(sym) })
	return e.states
}

// computeRange builds Range(sym).
func (n *NFA) computeRange(sym byte) []StateID {
	seen := make(map[StateID]struct{})
	for q := range n.states {
		if !n.states[q].Label.Test(sym) {
			continue
		}
		for _, c := range n.Succ(StateID(q)) {
			seen[c] = struct{}{}
		}
	}
	out := make([]StateID, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RangeSize returns len(Range(sym)) without retaining the slice.
func (n *NFA) RangeSize(sym byte) int { return len(n.Range(sym)) }

// RangeStats summarises Range sizes across all 256 symbols (Figure 3).
type RangeStats struct {
	Min, Max int
	Avg      float64
	MinSym   byte // a symbol achieving Min
}

// RangeStatsAll computes min/avg/max range size over all 256 symbols.
func (n *NFA) RangeStatsAll() RangeStats {
	rs := RangeStats{Min: int(^uint(0) >> 1)}
	total := 0
	for s := 0; s < 256; s++ {
		sz := n.RangeSize(byte(s))
		total += sz
		if sz < rs.Min {
			rs.Min, rs.MinSym = sz, byte(s)
		}
		if sz > rs.Max {
			rs.Max = sz
		}
	}
	rs.Avg = float64(total) / 256
	return rs
}

// ParentGroup is one enumeration unit (§3.3.2): the set of states activated
// together when one parent state fires on the cut symbol. Parents with
// identical child sets are folded into a single group; the group is true at
// a segment boundary iff any of its parents fired on the boundary symbol.
type ParentGroup struct {
	Parents []StateID // σ-labelled parents sharing this child set
	Seed    []StateID // sorted child set (the enumeration start states)
	CC      int32     // component all Seed states belong to
}

// ParentGroups returns the deduplicated enumeration units of symbol σ,
// ordered deterministically (by first parent). Each group's Seed lies in a
// single connected component because a parent and its children are
// connected.
func (n *NFA) ParentGroups(sym byte) []ParentGroup {
	type key string
	groups := make(map[key]*ParentGroup)
	var order []key
	var buf []byte
	for q := range n.states {
		succ := n.Succ(StateID(q))
		if !n.states[q].Label.Test(sym) || len(succ) == 0 {
			continue
		}
		buf = buf[:0]
		for _, c := range succ {
			buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		k := key(buf)
		g, ok := groups[k]
		if !ok {
			seed := append([]StateID(nil), succ...)
			g = &ParentGroup{Seed: seed, CC: n.CCOf(seed[0])}
			groups[k] = g
			order = append(order, k)
		}
		g.Parents = append(g.Parents, StateID(q))
	}
	out := make([]ParentGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

// Stats summarises an automaton's structure (Table 1 inputs).
type Stats struct {
	Name       string
	States     int
	Edges      int
	CCs        int
	Reporting  int
	AllInput   int
	StartOfDta int
}

// ComputeStats gathers structural statistics.
func (n *NFA) ComputeStats() Stats {
	_, cc := n.ConnectedComponents()
	return Stats{
		Name:       n.name,
		States:     n.Len(),
		Edges:      n.Edges(),
		CCs:        cc,
		Reporting:  len(n.ReportingStates()),
		AllInput:   len(n.allInput),
		StartOfDta: len(n.startOfData),
	}
}

package nfa

import (
	"encoding/binary"
	"hash/fnv"
)

// MergeCommonPrefixes applies the common-prefix compression of Becchi and
// Crowley used by the paper (§4.1) before execution: states that are always
// enabled together — same label, same flags, same report code, identical
// parent sets — are folded into one state whose child set is the union of
// the originals'. The pass runs to a fixpoint (merging parents makes their
// children mergeable). The language and the multiset of (offset, report
// code) events are preserved.
//
// The paper skips this compression for ClamAV, Fermi and RandomForest
// because it reduces the number of connected components with little gain;
// the workload generators make the same choice.
func MergeCommonPrefixes(n *NFA) *NFA {
	// Scored automata are left untouched: the merge criterion is score-blind
	// (two states with identical parent sets can still carry different edge
	// scores), so folding them could change best-score observables.
	if n.Scored() {
		return n
	}
	cur := n
	for pass := 0; pass < 64; pass++ {
		next, reduced := mergeOnce(cur)
		if !reduced {
			return cur
		}
		cur = next
	}
	return cur
}

func mergeOnce(n *NFA) (*NFA, bool) {
	type groupKey uint64
	// Group states by (label, flags, report code, parent set).
	rep := make(map[groupKey][]StateID)
	var order []groupKey
	var buf [8]byte
	for q := range n.states {
		h := fnv.New64a()
		s := n.states[q]
		for _, w := range s.Label {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
		h.Write([]byte{byte(s.Flags)})
		binary.LittleEndian.PutUint32(buf[:4], uint32(s.ReportCode))
		h.Write(buf[:4])
		for _, p := range n.Pred(StateID(q)) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(p))
			h.Write(buf[:4])
		}
		k := groupKey(h.Sum64())
		if _, ok := rep[k]; !ok {
			order = append(order, k)
		}
		rep[k] = append(rep[k], StateID(q))
	}
	if len(order) == len(n.states) {
		return n, false
	}
	// Verify hash groups exactly (guard against collisions) and split
	// non-identical members into their own groups.
	var verified [][]StateID
	for _, k := range order {
		members := rep[k]
		for len(members) > 0 {
			lead := members[0]
			same := []StateID{lead}
			var rest []StateID
			for _, m := range members[1:] {
				if n.sameMergeKey(lead, m) {
					same = append(same, m)
				} else {
					rest = append(rest, m)
				}
			}
			verified = append(verified, same)
			members = rest
		}
	}
	if len(verified) == len(n.states) {
		return n, false
	}
	// Rebuild with one representative per group.
	remap := make([]StateID, len(n.states))
	b := NewBuilder(n.name)
	for gi, g := range verified {
		s := n.states[g[0]]
		id := b.AddState(s.Label, s.Flags)
		b.SetReportCode(id, s.ReportCode)
		if StateID(gi) != id {
			panic("nfa: merge rebuild out of sync")
		}
		for _, m := range g {
			remap[m] = id
		}
	}
	for q := range n.states {
		for _, c := range n.Succ(StateID(q)) {
			b.AddEdge(remap[q], remap[c])
		}
	}
	out, err := b.Build()
	if err != nil {
		panic(err) // cannot happen: input was a valid NFA
	}
	return out, true
}

// sameMergeKey reports whether states a and b satisfy the exact merge
// criterion (label, flags, report code, parent set).
func (n *NFA) sameMergeKey(a, b StateID) bool {
	sa, sb := n.states[a], n.states[b]
	if sa.Label != sb.Label || sa.Flags != sb.Flags || sa.ReportCode != sb.ReportCode {
		return false
	}
	pa, pb := n.Pred(a), n.Pred(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// Package bitset provides a dense, fixed-capacity bit set used throughout
// the simulator for state vectors, symbol ranges, and connected-component
// masks. The zero value of Set is an empty set of capacity zero; use New to
// allocate capacity. All operations that combine two sets require equal
// capacity and panic otherwise: mixing vectors of different automata is a
// programming error, never a runtime condition.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. Bits are indexed from 0 to n-1, n the
// capacity given to New.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set capable of holding n bits.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewGroup returns k empty sets of n bits each, carved from one allocation
// of words and one of headers: for callers that build several vectors per
// call (an engine's enabled, fired and scratch vectors) and would otherwise
// pay two allocations apiece.
func NewGroup(n, k int) []Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, k*w)
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = Set{n: n, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return sets
}

// check panics if i is out of range.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i to 1.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is 1.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit, keeping capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of o.
func (s *Set) Copy(o *Set) {
	s.sameCap(o)
	copy(s.words, o.words)
}

func (s *Set) sameCap(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// Or sets s to s ∪ o.
func (s *Set) Or(o *Set) {
	s.sameCap(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// And sets s to s ∩ o.
func (s *Set) And(o *Set) {
	s.sameCap(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ o.
func (s *Set) AndNot(o *Set) {
	s.sameCap(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// OrAndOf sets s = (a ∪ b) ∩ m in a single fused pass — the state-match
// phase of the AP symbol cycle (enabled ∪ all-input, masked by the
// symbol's match vector) without the intermediate copy.
func (s *Set) OrAndOf(a, b, m *Set) {
	s.sameCap(a)
	s.sameCap(b)
	s.sameCap(m)
	sw, aw, bw, mw := s.words, a.words, b.words, m.words
	if len(sw) > 0 { // hoist the bounds checks for the fused loop
		_ = aw[len(sw)-1]
		_ = bw[len(sw)-1]
		_ = mw[len(sw)-1]
	}
	for i := range sw {
		sw[i] = (aw[i] | bw[i]) & mw[i]
	}
}

// AndOf sets s = a ∩ m in a single pass (the state-match phase with
// baseline injection off).
func (s *Set) AndOf(a, m *Set) {
	s.sameCap(a)
	s.sameCap(m)
	sw, aw, mw := s.words, a.words, m.words
	if len(sw) > 0 {
		_ = aw[len(sw)-1]
		_ = mw[len(sw)-1]
	}
	for i := range sw {
		sw[i] = aw[i] & mw[i]
	}
}

// AndNotCount sets s = s \ o and returns the number of bits remaining —
// the frontier-update half-step (drop all-input states, measure the
// frontier) fused into one pass.
func (s *Set) AndNotCount(o *Set) int {
	s.sameCap(o)
	c := 0
	sw, ow := s.words, o.words
	if len(sw) > 0 {
		_ = ow[len(sw)-1]
	}
	for i := range sw {
		w := sw[i] &^ ow[i]
		sw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether s and o contain exactly the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. It stops early if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice appends the indices of all set bits to dst and returns it.
func (s *Set) Slice(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// String renders the set as a compact list of indices, e.g. "{1 5 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Words exposes the raw backing words (read-only by convention); used by
// the AP state-vector comparator model.
func (s *Set) Words() []uint64 { return s.words }

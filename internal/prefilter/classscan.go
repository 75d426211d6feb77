package prefilter

import (
	"bytes"

	"pap/internal/nfa"
)

// StartClass returns the union of all all-input state labels of n: the
// exact set of bytes that can restart activity on a dead frontier. Every
// dead-frontier skip scans for this class — the engine cursor's baseline
// skip, in the run loops, streams and core's rounds, and the prefilter's
// class tier.
func StartClass(n *nfa.NFA) nfa.Class {
	var c nfa.Class
	for _, q := range n.AllInputStates() {
		c = c.Union(n.Label(q))
	}
	return c
}

// ClassScanner finds the next byte of a fixed class in an input window —
// the memchr-style primitive behind every exact dead-frontier skip. It is
// immutable and safe for concurrent use by any number of engines.
type ClassScanner struct {
	count  int
	single byte // the candidate byte when count == 1
	in     [256]bool
}

// NewClassScanner compiles a scanner for the class.
func NewClassScanner(c nfa.Class) *ClassScanner {
	s := &ClassScanner{count: c.Count()}
	for b := 0; b < 256; b++ {
		if c.Test(byte(b)) {
			s.in[b] = true
			s.single = byte(b)
		}
	}
	return s
}

// Count returns the number of bytes in the class.
func (s *ClassScanner) Count() int { return s.count }

// Contains reports whether b is in the class.
func (s *ClassScanner) Contains(b byte) bool { return s.in[b] }

// Useful reports whether scanning can plausibly beat plain stepping: some
// byte must be skippable, i.e. candidates must not saturate the alphabet.
func (s *ClassScanner) Useful() bool { return s.count <= usefulMaxStartDensity }

// NextIn returns the smallest offset j in [i, hi) with input[j] in the
// class, or hi if none exists (hi is clamped to len(input)). A single-byte
// class scans with bytes.IndexByte (true memchr); wider classes run an
// 8-way unrolled table scan with the block's bounds checks hoisted by the
// full-slice re-slice.
func (s *ClassScanner) NextIn(input []byte, i, hi int) int {
	if hi > len(input) {
		hi = len(input)
	}
	if i >= hi {
		return hi
	}
	switch s.count {
	case 0:
		return hi
	case 1:
		if j := bytes.IndexByte(input[i:hi], s.single); j >= 0 {
			return i + j
		}
		return hi
	}
	in := &s.in
	for hi-i >= 8 {
		w := input[i : i+8 : i+8]
		if in[w[0]] || in[w[1]] || in[w[2]] || in[w[3]] ||
			in[w[4]] || in[w[5]] || in[w[6]] || in[w[7]] {
			break
		}
		i += 8
	}
	for ; i < hi; i++ {
		if in[input[i]] {
			return i
		}
	}
	return hi
}

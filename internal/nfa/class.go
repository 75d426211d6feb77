package nfa

import (
	"fmt"
	"math/bits"
	"strings"
)

// Class is a set of 8-bit input symbols, the label of one homogeneous-NFA
// state. On the Micron AP this is exactly the 256-bit column an STE stores
// (one-hot rows per matching symbol). Class is a value type; the zero value
// matches nothing.
type Class [4]uint64

// AnyClass returns the class matching all 256 symbols.
func AnyClass() Class {
	return Class{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// ClassOf returns the class matching exactly the given symbols.
func ClassOf(syms ...byte) Class {
	var c Class
	for _, s := range syms {
		c.Add(s)
	}
	return c
}

// ClassRange returns the class matching all symbols in [lo, hi].
func ClassRange(lo, hi byte) Class {
	var c Class
	c.AddRange(lo, hi)
	return c
}

// Add includes symbol s in the class.
func (c *Class) Add(s byte) { c[s>>6] |= 1 << (s & 63) }

// AddRange includes all symbols in [lo, hi].
func (c *Class) AddRange(lo, hi byte) {
	for s := int(lo); s <= int(hi); s++ {
		c.Add(byte(s))
	}
}

// Remove excludes symbol s from the class.
func (c *Class) Remove(s byte) { c[s>>6] &^= 1 << (s & 63) }

// Test reports whether symbol s is in the class.
func (c Class) Test(s byte) bool { return c[s>>6]&(1<<(s&63)) != 0 }

// Negate returns the complement of the class.
func (c Class) Negate() Class {
	return Class{^c[0], ^c[1], ^c[2], ^c[3]}
}

// Union returns c ∪ o.
func (c Class) Union(o Class) Class {
	return Class{c[0] | o[0], c[1] | o[1], c[2] | o[2], c[3] | o[3]}
}

// Count returns the number of symbols in the class.
func (c Class) Count() int {
	return bits.OnesCount64(c[0]) + bits.OnesCount64(c[1]) +
		bits.OnesCount64(c[2]) + bits.OnesCount64(c[3])
}

// Empty reports whether the class matches no symbol.
func (c Class) Empty() bool { return c == Class{} }

// Symbols appends all symbols in the class to dst in ascending order.
func (c Class) Symbols(dst []byte) []byte {
	for wi, w := range c {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, byte(wi*64+b))
			w &= w - 1
		}
	}
	return dst
}

// Pick returns the n-th symbol (0-based) of the class in ascending order.
// It panics if n >= Count().
func (c Class) Pick(n int) byte {
	for wi, w := range c {
		cnt := bits.OnesCount64(w)
		if n >= cnt {
			n -= cnt
			continue
		}
		for ; ; n-- {
			b := bits.TrailingZeros64(w)
			if n == 0 {
				return byte(wi*64 + b)
			}
			w &= w - 1
		}
	}
	panic("nfa: Class.Pick index out of range")
}

// String renders the class in a compact regex-like form, e.g. "[a-c x]".
func (c Class) String() string {
	n := c.Count()
	switch {
	case n == 0:
		return "[]"
	case n == 256:
		return "[*]"
	case n == 1:
		return fmt.Sprintf("%q", c.Pick(0))
	}
	var b strings.Builder
	b.WriteByte('[')
	syms := c.Symbols(nil)
	for i := 0; i < len(syms); {
		j := i
		for j+1 < len(syms) && syms[j+1] == syms[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if j > i {
			fmt.Fprintf(&b, "%s-%s", printable(syms[i]), printable(syms[j]))
		} else {
			b.WriteString(printable(syms[i]))
		}
		i = j + 1
	}
	b.WriteByte(']')
	return b.String()
}

func printable(s byte) string {
	if s >= 0x21 && s <= 0x7e {
		return string(rune(s))
	}
	return fmt.Sprintf("\\x%02x", s)
}

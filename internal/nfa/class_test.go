package nfa

import (
	"testing"
	"testing/quick"
)

func TestClassBasics(t *testing.T) {
	c := ClassOf('a', 'b', 'z')
	for _, s := range []byte{'a', 'b', 'z'} {
		if !c.Test(s) {
			t.Errorf("Test(%q) = false", s)
		}
	}
	if c.Test('c') || c.Test(0) || c.Test(255) {
		t.Error("Test matched symbol not in class")
	}
	if c.Count() != 3 {
		t.Errorf("Count = %d, want 3", c.Count())
	}
	c.Remove('b')
	if c.Test('b') || c.Count() != 2 {
		t.Error("Remove failed")
	}
}

func TestClassRangeAndNegate(t *testing.T) {
	c := ClassRange('0', '9')
	if c.Count() != 10 {
		t.Fatalf("Count = %d, want 10", c.Count())
	}
	n := c.Negate()
	if n.Count() != 246 {
		t.Fatalf("negated Count = %d, want 246", n.Count())
	}
	for s := 0; s < 256; s++ {
		if c.Test(byte(s)) == n.Test(byte(s)) {
			t.Fatalf("negation overlap at %d", s)
		}
	}
}

func TestAnyClass(t *testing.T) {
	a := AnyClass()
	if a.Count() != 256 {
		t.Fatalf("AnyClass Count = %d", a.Count())
	}
	for s := 0; s < 256; s++ {
		if !a.Test(byte(s)) {
			t.Fatalf("AnyClass missing %d", s)
		}
	}
}

func TestClassUnionIntersect(t *testing.T) {
	a := ClassRange('a', 'm')
	b := ClassRange('h', 'z')
	u := a.Union(b)
	if u.Count() != 26 {
		t.Errorf("union Count = %d, want 26", u.Count())
	}
	i := a.Negate().Union(b.Negate()).Negate() // De Morgan: a ∩ b
	if i.Count() != 6 || i != ClassRange('h', 'm') {
		t.Errorf("intersect = %v, want [h-m]", i)
	}
}

func TestClassSymbolsAndPick(t *testing.T) {
	c := ClassOf(0, 63, 64, 128, 255)
	syms := c.Symbols(nil)
	want := []byte{0, 63, 64, 128, 255}
	if len(syms) != len(want) {
		t.Fatalf("Symbols = %v", syms)
	}
	for i := range want {
		if syms[i] != want[i] {
			t.Fatalf("Symbols[%d] = %d, want %d", i, syms[i], want[i])
		}
		if got := c.Pick(i); got != want[i] {
			t.Fatalf("Pick(%d) = %d, want %d", i, got, want[i])
		}
	}
}

func TestClassPickPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick out of range should panic")
		}
	}()
	ClassOf('x').Pick(1)
}

func TestClassString(t *testing.T) {
	cases := []struct {
		c    Class
		want string
	}{
		{Class{}, "[]"},
		{AnyClass(), "[*]"},
		{ClassOf('a'), `'a'`},
		{ClassRange('a', 'c'), "[a-c]"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// Property: membership after Add matches a model set; Count agrees.
func TestClassQuick(t *testing.T) {
	f := func(adds []byte) bool {
		var c Class
		model := map[byte]bool{}
		for _, s := range adds {
			c.Add(s)
			model[s] = true
		}
		if c.Count() != len(model) {
			return false
		}
		for s := 0; s < 256; s++ {
			if c.Test(byte(s)) != model[byte(s)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pick(i) enumerates exactly Symbols().
func TestClassPickQuick(t *testing.T) {
	f := func(adds []byte) bool {
		var c Class
		for _, s := range adds {
			c.Add(s)
		}
		syms := c.Symbols(nil)
		for i, s := range syms {
			if c.Pick(i) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

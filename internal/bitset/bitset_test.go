package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if len(s.Words()) != 3 {
		t.Fatalf("New(130) holds %d words, want 3", len(s.Words()))
	}
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
}

func TestSetClearTest(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count() = %d, want 8", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Set(10) },
		func() { s.Set(-1) },
		func() { s.Test(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(64), New(65)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	a.Or(b)
}

func TestSetOps(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(60)

	u := a.Clone()
	u.Or(b)
	if got := u.Slice(nil); len(got) != 4 {
		t.Fatalf("Or: got %v", got)
	}
	i := a.Clone()
	i.And(b)
	if got := i.Slice(nil); len(got) != 1 || got[0] != 50 {
		t.Fatalf("And: got %v", got)
	}
	d := a.Clone()
	d.AndNot(b)
	if got := d.Slice(nil); len(got) != 2 || got[0] != 1 || got[1] != 99 {
		t.Fatalf("AndNot: got %v", got)
	}
	d.And(b)
	if !d.Empty() {
		t.Fatal("(a\\b) ∩ b should be empty")
	}
}

func TestEqualCloneCopy(t *testing.T) {
	a := New(77)
	a.Set(3)
	a.Set(76)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(5)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	c := New(77)
	c.Copy(b)
	if !c.Equal(b) {
		t.Fatal("copy not equal")
	}
	if a.Equal(New(78)) {
		t.Fatal("different capacities reported equal")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(300)
	want := []int{2, 64, 65, 128, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	count := 0
	s.ForEach(func(i int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestReset(t *testing.T) {
	s := New(128)
	for i := 0; i < 128; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if !s.Empty() {
		t.Fatal("Reset left bits set")
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Set(1)
	s.Set(5)
	if got := s.String(); got != "{1 5}" {
		t.Fatalf("String() = %q, want {1 5}", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

// Property: Or/And/AndNot agree with a map-of-bools model.
func TestQuickAgainstModel(t *testing.T) {
	f := func(seedA, seedB []uint16, opPick uint8) bool {
		const n = 1 << 12
		a, b := New(n), New(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for _, v := range seedA {
			i := int(v) % n
			a.Set(i)
			ma[i] = true
		}
		for _, v := range seedB {
			i := int(v) % n
			b.Set(i)
			mb[i] = true
		}
		got := a.Clone()
		want := map[int]bool{}
		switch opPick % 3 {
		case 0:
			got.Or(b)
			for i := range ma {
				want[i] = true
			}
			for i := range mb {
				want[i] = true
			}
		case 1:
			got.And(b)
			for i := range ma {
				if mb[i] {
					want[i] = true
				}
			}
		case 2:
			got.AndNot(b)
			for i := range ma {
				if !mb[i] {
					want[i] = true
				}
			}
		}
		if got.Count() != len(want) {
			return false
		}
		ok := true
		got.ForEach(func(i int) bool {
			if !want[i] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(1000)
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		v := rng.Intn(1000)
		s.Set(v)
		want[v] = true
	}
	got := s.Slice(nil)
	if len(got) != len(want) {
		t.Fatalf("Slice len %d, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Slice not strictly ascending at %d: %v", i, got[i-1:i+1])
		}
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("Slice returned unset bit %d", v)
		}
	}
}

// TestNewGroup: the sets of a group are independent full-capacity sets,
// though they share one allocation.
func TestNewGroup(t *testing.T) {
	g := NewGroup(70, 3)
	if len(g) != 3 {
		t.Fatalf("NewGroup returned %d sets", len(g))
	}
	g[1].Set(0)
	g[1].Set(69)
	for i := range g {
		if len(g[i].Words()) != 2 || cap(g[i].Words()) != 2 {
			t.Fatalf("set %d: %d words (cap %d)", i, len(g[i].Words()), cap(g[i].Words()))
		}
		if want := map[int]int{1: 2}[i]; g[i].Count() != want {
			t.Fatalf("set %d holds %d bits, want %d", i, g[i].Count(), want)
		}
	}
	if !g[0].Equal(New(70)) {
		t.Fatal("a grouped set differs from New's")
	}
}

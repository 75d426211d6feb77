package ap

import (
	"testing"

	"pap/internal/nfa"
)

func TestConstants(t *testing.T) {
	// Constants documented in the paper: check derived values.
	if STEsPerHalfCore != 24576 {
		t.Errorf("STEsPerHalfCore = %d", STEsPerHalfCore)
	}
	if StateVectorBits != 59936 {
		t.Errorf("StateVectorBits = %d, want 59936", StateVectorBits)
	}
	if HalfCoresPerRank != 16 {
		t.Errorf("HalfCoresPerRank = %d", HalfCoresPerRank)
	}
}

func TestCyclesNanoseconds(t *testing.T) {
	if got := Cycles(2).Nanoseconds(); got != 15.0 {
		t.Errorf("2 cycles = %v ns, want 15", got)
	}
}

func TestNewBoard(t *testing.T) {
	for _, r := range []int{0, 5, -1} {
		if _, err := NewBoard(r); err == nil {
			t.Errorf("NewBoard(%d) succeeded", r)
		}
	}
	b, err := NewBoard(4)
	if err != nil {
		t.Fatal(err)
	}
	if b.HalfCores() != 64 {
		t.Errorf("HalfCores = %d, want 64", b.HalfCores())
	}
}

func TestPlaceAndSegments(t *testing.T) {
	cases := []struct {
		states             int
		wantHC             int
		wantSeg1, wantSeg4 int
	}{
		{11124, 1, 16, 64}, // Dotstar03 (Table 1)
		{40783, 2, 8, 32},  // Fermi
		{49538, 3, 5, 21},  // ClamAV: 49538/24576 = 2.02 → 3
		{1, 1, 16, 64},
	}
	b1, _ := NewBoard(1)
	b4, _ := NewBoard(4)
	for _, c := range cases {
		p, err := Place(c.states)
		if err != nil {
			t.Fatal(err)
		}
		if p.HalfCores != c.wantHC {
			t.Errorf("Place(%d).HalfCores = %d, want %d", c.states, p.HalfCores, c.wantHC)
		}
		if got := b1.Segments(p); got != c.wantSeg1 {
			t.Errorf("Segments(1 rank, %d states) = %d, want %d", c.states, got, c.wantSeg1)
		}
		if got := b4.Segments(p); got != c.wantSeg4 {
			t.Errorf("Segments(4 ranks, %d states) = %d, want %d", c.states, got, c.wantSeg4)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	for _, states := range []int{0, -1} {
		if _, err := Place(states); err == nil {
			t.Errorf("Place(%d) succeeded", states)
		}
	}
}

func TestFlowCapacity(t *testing.T) {
	p, _ := Place(10000) // 1 device
	if err := CheckFlowCapacity(p, 512); err != nil {
		t.Errorf("512 flows on 1 device rejected: %v", err)
	}
	if err := CheckFlowCapacity(p, 513); err == nil {
		t.Error("513 flows on 1 device accepted")
	}
	p2, _ := Place(60000) // 3 half-cores → 2 devices
	if err := CheckFlowCapacity(p2, 1024); err != nil {
		t.Errorf("1024 flows on 2 devices rejected: %v", err)
	}
}

func TestSVCLifecycle(t *testing.T) {
	s := NewSVC(1)
	if s.Capacity() != 512 {
		t.Fatalf("capacity = %d", s.Capacity())
	}
	id1 := s.AllocOverflow([]nfa.StateID{1, 2, 3}, 0xabc)
	id2 := s.AllocOverflow([]nfa.StateID{4}, 0xdef)
	if s.Active() != 2 {
		t.Fatalf("active = %d", s.Active())
	}
	fr, fp := s.Load(id1)
	if len(fr) != 3 || fp != 0xabc {
		t.Fatalf("Load = %v %x", fr, fp)
	}
	s.Save(id1, []nfa.StateID{9}, 0x9)
	fr, fp = s.Load(id1)
	if len(fr) != 1 || fr[0] != 9 || fp != 0x9 {
		t.Fatalf("after Save: %v %x", fr, fp)
	}
	if s.Fingerprint(id2) != 0xdef {
		t.Fatal("Fingerprint mismatch")
	}
	if !s.Valid(id1) || !s.Valid(id2) || s.Valid(id2+1) {
		t.Fatal("Valid disagrees with the allocated entries")
	}
	s.Invalidate(id1)
	s.Invalidate(id1) // idempotent
	if s.Active() != 1 || s.Valid(id1) || !s.Valid(id2) {
		t.Fatalf("invalidate bookkeeping wrong: active=%d", s.Active())
	}
}

// TestSVCCapacityExhaustion: the modelled capacity is 512 entries per
// device the replica spans (at least one), and filling it is bookkept entry
// by entry.
func TestSVCCapacityExhaustion(t *testing.T) {
	for _, c := range []struct{ devices, want int }{{0, 512}, {1, 512}, {3, 1536}} {
		if got := NewSVC(c.devices).Capacity(); got != c.want {
			t.Errorf("NewSVC(%d).Capacity() = %d, want %d", c.devices, got, c.want)
		}
	}
	s := NewSVC(2)
	for i := 0; i < s.Capacity(); i++ {
		s.AllocOverflow(nil, 0)
	}
	if s.Active() != s.Capacity() {
		t.Fatalf("active = %d after filling capacity %d", s.Active(), s.Capacity())
	}
	s.Invalidate(5)
	if s.Active() != s.Capacity()-1 {
		t.Fatalf("active = %d after freeing one of %d", s.Active(), s.Capacity())
	}
}

// TestSVCAllocOverflow: allocation never fails, even past the modelled
// capacity (flow-merge ablations do this on purpose), and an entry beyond it
// is as usable as any other.
func TestSVCAllocOverflow(t *testing.T) {
	s := NewSVC(1)
	for i := 0; i < SVCEntriesPerDevice; i++ {
		s.AllocOverflow(nil, 0)
	}
	id := s.AllocOverflow([]nfa.StateID{7}, 9)
	if s.Active() != s.Capacity()+1 {
		t.Fatalf("active = %d, want capacity+1 = %d", s.Active(), s.Capacity()+1)
	}
	if fr, fp := s.Load(id); len(fr) != 1 || fr[0] != 7 || fp != 9 {
		t.Fatalf("overflow entry unusable: %v %x", fr, fp)
	}
	// Freeing one entry is bookkept like any other.
	s.Invalidate(0)
	if s.Active() != s.Capacity() || s.Valid(0) {
		t.Fatalf("after invalidate: active = %d, valid(0) = %v", s.Active(), s.Valid(0))
	}
}

func TestSVCInvalidAccessPanics(t *testing.T) {
	s := NewSVC(1)
	id := s.AllocOverflow([]nfa.StateID{1}, 1)
	s.Invalidate(id)
	for name, fn := range map[string]func(){
		"Load":        func() { s.Load(id) },
		"Save":        func() { s.Save(id, nil, 0) },
		"Fingerprint": func() { s.Fingerprint(id) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on invalid flow did not panic", name)
				}
			}()
			fn()
		}()
	}
}

package pap

import (
	"math/rand"
	"testing"
)

// TestStreamChunkInvariance is the chunk-boundary property test: for every
// backend, feeding an input through Write in randomized splits — including
// empty and 1-byte chunks — must produce exactly the matches of a single
// Write of the whole input, with identical per-(offset, state) dedup
// behaviour. Engines rotate across trials so every backend sees chunk
// boundaries mid-frontier.
func TestStreamChunkInvariance(t *testing.T) {
	a, err := Compile("prop", []string{"abc", "bc+d", "x.z", "a{2,4}b"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	input := makeInput(1<<13, 99, "abc", "bccd", "xyz", "aaab")

	for _, kind := range []EngineKind{EngineSparse, EngineBit, EngineAuto} {
		whole := a.NewStream(WithEngine(kind))
		want := append([]Match(nil), whole.Write(input)...)

		for trial := 0; trial < 8; trial++ {
			s := a.NewStream(WithEngine(kind))
			var got []Match
			pos := 0
			for pos < len(input) {
				var n int
				switch rng.Intn(4) {
				case 0:
					n = 0 // empty writes must be no-ops
				case 1:
					n = 1
				default:
					n = rng.Intn(900)
				}
				if pos+n > len(input) {
					n = len(input) - pos
				}
				got = append(got, s.Write(input[pos:pos+n])...)
				pos += n
			}
			if s.Offset() != int64(len(input)) {
				t.Fatalf("%v trial %d: offset %d, want %d", kind, trial, s.Offset(), len(input))
			}
			if len(got) != len(want) {
				t.Fatalf("%v trial %d: %d matches, want %d", kind, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v trial %d: match %d = %+v, want %+v", kind, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamEdgeInputs: streams over empty, 1-byte and pathological chunk
// sequences across backends.
func TestStreamEdgeInputs(t *testing.T) {
	a, err := Compile("edge", []string{"ab"})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineSparse, EngineBit, EngineAuto} {
		s := a.NewStream(WithEngine(kind))
		if got := s.Write(nil); len(got) != 0 {
			t.Fatalf("%v: Write(nil) = %+v", kind, got)
		}
		if got := s.Write([]byte{}); len(got) != 0 || s.Offset() != 0 {
			t.Fatalf("%v: empty write moved the stream", kind)
		}
		// One byte at a time, straddling the match.
		if got := s.Write([]byte("a")); len(got) != 0 {
			t.Fatalf("%v: premature match %+v", kind, got)
		}
		got := s.Write([]byte("b"))
		if len(got) != 1 || got[0].Offset != 1 || got[0].Code != 0 {
			t.Fatalf("%v: match = %+v, want one at offset 1", kind, got)
		}
	}
}

// TestStreamAllASG: streaming an automaton with only all-input states (the
// Hamming lattice's centre row shape) reports at every matching offset on
// every backend.
func TestStreamAllASG(t *testing.T) {
	a, err := Hamming("asg", []string{"aa"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Match([]byte("aaaa"))
	if len(want) == 0 {
		t.Fatal("no matches from Hamming automaton")
	}
	for _, kind := range []EngineKind{EngineSparse, EngineBit, EngineAuto} {
		s := a.NewStream(WithEngine(kind))
		var got []Match
		for _, c := range []byte("aaaa") {
			got = append(got, s.Write([]byte{c})...)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d matches, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: match %d = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
}

package anml

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/regex"
)

const sampleANML = `<automata-network id="demo" name="demo">
  <state-transition-element id="q0" symbol-set="[a]" start="all-input">
    <activate-on-match element="q1"/>
  </state-transition-element>
  <state-transition-element id="q1" symbol-set="[b]">
    <activate-on-match element="q2"/>
  </state-transition-element>
  <state-transition-element id="q2" symbol-set="[c]">
    <report-on-match reportcode="7"/>
  </state-transition-element>
</automata-network>`

func TestDecodeSample(t *testing.T) {
	n, err := Decode(strings.NewReader(sampleANML))
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 3 || n.Name() != "demo" {
		t.Fatalf("decoded %d states, name %q", n.Len(), n.Name())
	}
	res := engine.Run(n, []byte("zzabczz"))
	if len(res.Reports) != 1 || res.Reports[0].Offset != 4 || res.Reports[0].Code != 7 {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"dup-id": `<automata-network id="x">
			<state-transition-element id="a" symbol-set="[a]" start="all-input"/>
			<state-transition-element id="a" symbol-set="[b]"/>
		</automata-network>`,
		"unknown-target": `<automata-network id="x">
			<state-transition-element id="a" symbol-set="[a]" start="all-input">
				<activate-on-match element="nope"/>
			</state-transition-element>
		</automata-network>`,
		"bad-start": `<automata-network id="x">
			<state-transition-element id="a" symbol-set="[a]" start="sometimes"/>
		</automata-network>`,
		"bad-symbols": `<automata-network id="x">
			<state-transition-element id="a" symbol-set="abc" start="all-input"/>
		</automata-network>`,
		"counter": `<automata-network id="x">
			<state-transition-element id="a" symbol-set="[a]" start="all-input"/>
			<counter id="c1"/>
		</automata-network>`,
		"no-id": `<automata-network id="x">
			<state-transition-element symbol-set="[a]" start="all-input"/>
		</automata-network>`,
		"bad-code": `<automata-network id="x">
			<state-transition-element id="a" symbol-set="[a]" start="all-input">
				<report-on-match reportcode="seven"/>
			</state-transition-element>
		</automata-network>`,
		"not-xml": "not xml at all",
	}
	for name, doc := range cases {
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// TestDecodeRejectsNonSTE: every element other than a state-transition
// element is an error naming its kind and count — none is dropped, whether
// the AP has it (counters, gates) or nobody does.
func TestDecodeRejectsNonSTE(t *testing.T) {
	cases := []struct{ kind, el string }{
		{"inverter", `<inverter id="inv"><activate-on-high element="a"/></inverter>`},
		{"nor", `<nor id="x"/>`},
		{"nand", `<nand id="x"><report-on-high reportcode="1"/></nand>`},
		{"counter", `<counter id="c" at-target="2"/>`},
		{"or", `<or id="x"/>`},
		{"and", `<and id="x"/>`},
		{"widget", `<widget id="w"/>`},
	}
	for _, c := range cases {
		doc := `<automata-network id="x">
			<state-transition-element id="a" symbol-set="*" start="all-input">
				<activate-on-match element="a"/>
			</state-transition-element>
			` + c.el + c.el + `
		</automata-network>`
		n, err := Decode(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s: decoded to %d states with no error", c.kind, n.Len())
			continue
		}
		if want := "2 " + c.kind; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", c.kind, err, want)
		}
	}
	mixed := `<automata-network id="x">
		<state-transition-element id="a" symbol-set="[a]" start="all-input"/>
		<counter id="c1"/><inverter id="i"/><counter id="c2"/>
	</automata-network>`
	if _, err := Decode(strings.NewReader(mixed)); err == nil || !strings.Contains(err.Error(), "2 counter, 1 inverter") {
		t.Errorf("mixed kinds: error %v, want one naming 2 counter, 1 inverter", err)
	}
}

func TestParseSymbolSet(t *testing.T) {
	cases := []struct {
		in    string
		count int
		has   []byte
		not   []byte
	}{
		{"[abc]", 3, []byte("abc"), []byte("d")},
		{"[a-f]", 6, []byte("af"), []byte("g")},
		{"[^a]", 255, []byte("bz"), []byte("a")},
		{"*", 256, []byte{0, 255}, nil},
		{`[\x00-\x1f]`, 32, []byte{0, 31}, []byte{32}},
		{`[\n\r\t]`, 3, []byte("\n\r\t"), []byte(" ")},
		{`[\]\[\-]`, 3, []byte("][-"), []byte("a")},
		{`[a\-z]`, 3, []byte("a-z"), []byte("b")}, // escaped dash is literal
		{`[\\]`, 1, []byte{'\\'}, nil},
	}
	for _, c := range cases {
		cls, err := ParseSymbolSet(c.in)
		if err != nil {
			t.Errorf("ParseSymbolSet(%q): %v", c.in, err)
			continue
		}
		if cls.Count() != c.count {
			t.Errorf("ParseSymbolSet(%q).Count = %d, want %d", c.in, cls.Count(), c.count)
		}
		for _, s := range c.has {
			if !cls.Test(s) {
				t.Errorf("ParseSymbolSet(%q) missing %q", c.in, s)
			}
		}
		for _, s := range c.not {
			if cls.Test(s) {
				t.Errorf("ParseSymbolSet(%q) wrongly has %q", c.in, s)
			}
		}
	}
	for _, bad := range []string{"", "abc", "[", "[]", "[z-a]", `[\x1]`, `[\xzz]`, `[a\]`} {
		if _, err := ParseSymbolSet(bad); err == nil {
			t.Errorf("ParseSymbolSet(%q) succeeded", bad)
		}
	}
}

// TestSymbolSetRoundTrip: Format then Parse is the identity on random
// classes.
func TestSymbolSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var cls nfa.Class
		for k := 0; k < 1+rng.Intn(40); k++ {
			cls.Add(byte(rng.Intn(256)))
		}
		got, err := ParseSymbolSet(FormatSymbolSet(cls))
		if err != nil {
			t.Fatalf("round trip of %s: %v", cls, err)
		}
		if got != cls {
			t.Fatalf("round trip changed class: %s -> %s (%q)", cls, got, FormatSymbolSet(cls))
		}
	}
	// Full class round trip.
	if got, err := ParseSymbolSet(FormatSymbolSet(nfa.AnyClass())); err != nil || got != nfa.AnyClass() {
		t.Fatalf("wildcard round trip: %v", err)
	}
}

// TestEncodeDecodeRoundTrip: a compiled ruleset survives ANML round trip
// with identical behaviour.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	n, err := regex.CompilePatterns("rt", []string{"abc", "a[xy]{2}z", "p.*q"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, n); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"automata-network", "state-transition-element", "report-on-match", "all-input"} {
		if !strings.Contains(out, want) {
			t.Fatalf("encoded ANML missing %q:\n%s", want, out)
		}
	}
	m, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode of encoded ANML: %v\n%s", err, out)
	}
	if m.Len() != n.Len() || m.Edges() != n.Edges() {
		t.Fatalf("round trip changed structure: %d/%d -> %d/%d",
			n.Len(), n.Edges(), m.Len(), m.Edges())
	}
	rng := rand.New(rand.NewSource(3))
	input := make([]byte, 512)
	for i := range input {
		input[i] = "abcpqxyz"[rng.Intn(8)]
	}
	if !engine.SameReports(engine.Run(n, input).Reports, engine.Run(m, input).Reports) {
		t.Fatal("round trip changed behaviour")
	}
}

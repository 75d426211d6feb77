// Package anml reads and writes a practical subset of ANML, the Automata
// Network Markup Language of the Micron AP SDK (the format the ANMLZoo
// benchmark suite distributes its automata in). Supported: networks of
// state-transition elements with symbol sets, start kinds (start-of-data /
// all-input), activate-on-match edges, and report-on-match codes. Any other
// element of the network — counters, boolean gates, or a kind this package
// has never heard of — is rejected with an error naming it, since the
// engines in this repository execute pure STE networks (the paper's
// benchmarks are STE-only).
package anml

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"pap/internal/nfa"
)

// xmlNetwork mirrors the ANML document structure.
type xmlNetwork struct {
	XMLName xml.Name   `xml:"automata-network"`
	ID      string     `xml:"id,attr"`
	Name    string     `xml:"name,attr"`
	STEs    []xmlSTE   `xml:"state-transition-element"`
	Other   []xmlOther `xml:",any"` // every non-STE element, to be rejected
}

type xmlSTE struct {
	ID        string        `xml:"id,attr"`
	SymbolSet string        `xml:"symbol-set,attr"`
	Start     string        `xml:"start,attr"`
	Activate  []xmlActivate `xml:"activate-on-match"`
	Report    *xmlReport    `xml:"report-on-match"`
}

type xmlActivate struct {
	Element string `xml:"element,attr"`
}

type xmlReport struct {
	Code string `xml:"reportcode,attr"`
}

type xmlOther struct {
	XMLName xml.Name
}

// Decode parses an ANML document into a homogeneous NFA.
func Decode(r io.Reader) (*nfa.NFA, error) {
	var doc xmlNetwork
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	if len(doc.Other) > 0 {
		return nil, fmt.Errorf("anml: network %q uses %s, which this engine does not execute (only state-transition-element networks)",
			doc.ID, countKinds(doc.Other))
	}
	name := doc.Name
	if name == "" {
		name = doc.ID
	}
	if name == "" {
		name = "anml"
	}
	b := nfa.NewBuilder(name)
	ids := make(map[string]nfa.StateID, len(doc.STEs))
	for _, ste := range doc.STEs {
		if ste.ID == "" {
			return nil, fmt.Errorf("anml: state-transition-element without id")
		}
		if _, dup := ids[ste.ID]; dup {
			return nil, fmt.Errorf("anml: duplicate element id %q", ste.ID)
		}
		cls, err := ParseSymbolSet(ste.SymbolSet)
		if err != nil {
			return nil, fmt.Errorf("anml: element %q: %w", ste.ID, err)
		}
		var flags nfa.Flags
		switch ste.Start {
		case "", "none":
		case "start-of-data":
			flags |= nfa.StartOfData
		case "all-input":
			flags |= nfa.AllInput
		default:
			return nil, fmt.Errorf("anml: element %q: unknown start kind %q", ste.ID, ste.Start)
		}
		id := b.AddState(cls, flags)
		if ste.Report != nil {
			b.SetFlags(id, nfa.Report)
			var code int32
			if ste.Report.Code != "" {
				if _, err := fmt.Sscanf(ste.Report.Code, "%d", &code); err != nil {
					return nil, fmt.Errorf("anml: element %q: bad reportcode %q", ste.ID, ste.Report.Code)
				}
			}
			b.SetReportCode(id, code)
		}
		ids[ste.ID] = id
	}
	for _, ste := range doc.STEs {
		from := ids[ste.ID]
		for _, act := range ste.Activate {
			to, ok := ids[act.Element]
			if !ok {
				return nil, fmt.Errorf("anml: element %q activates unknown element %q", ste.ID, act.Element)
			}
			b.AddEdge(from, to)
		}
	}
	return b.Build()
}

// countKinds renders element kinds with their counts in order of first
// appearance, e.g. "2 counter, 1 inverter".
func countKinds(els []xmlOther) string {
	counts := map[string]int{}
	var kinds []string
	for _, e := range els {
		k := e.XMLName.Local
		if counts[k] == 0 {
			kinds = append(kinds, k)
		}
		counts[k]++
	}
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", counts[k], k)
	}
	return strings.Join(parts, ", ")
}

// Encode writes the automaton as an ANML document.
func Encode(w io.Writer, n *nfa.NFA) error {
	doc := xmlNetwork{ID: n.Name(), Name: n.Name()}
	for q := 0; q < n.Len(); q++ {
		st := n.State(nfa.StateID(q))
		ste := xmlSTE{
			ID:        fmt.Sprintf("ste%d", q),
			SymbolSet: FormatSymbolSet(st.Label),
		}
		switch {
		case st.Flags&nfa.StartOfData != 0:
			ste.Start = "start-of-data"
		case st.Flags&nfa.AllInput != 0:
			ste.Start = "all-input"
		}
		for _, c := range n.Succ(nfa.StateID(q)) {
			ste.Activate = append(ste.Activate, xmlActivate{Element: fmt.Sprintf("ste%d", c)})
		}
		if st.Flags&nfa.Report != 0 {
			ste.Report = &xmlReport{Code: fmt.Sprintf("%d", st.ReportCode)}
		}
		doc.STEs = append(doc.STEs, ste)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("anml: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// ParseSymbolSet parses an ANML symbol set: a bracket expression like
// "[abc]", "[\x00-\x1f]", "[^\n]", or the wildcard "*". Escapes: \xHH,
// \n \r \t \\ \- \] \[ \^ \*.
func ParseSymbolSet(s string) (nfa.Class, error) {
	if s == "*" {
		return nfa.AnyClass(), nil
	}
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return nfa.Class{}, fmt.Errorf("symbol set %q is not a bracket expression", s)
	}
	body := s[1 : len(s)-1]
	negate := false
	if strings.HasPrefix(body, "^") {
		negate = true
		body = body[1:]
	}
	var cls nfa.Class
	i := 0
	readOne := func() (byte, error) {
		if i >= len(body) {
			return 0, fmt.Errorf("truncated symbol set %q", s)
		}
		c := body[i]
		i++
		if c != '\\' {
			return c, nil
		}
		if i >= len(body) {
			return 0, fmt.Errorf("trailing backslash in %q", s)
		}
		e := body[i]
		i++
		switch e {
		case 'x':
			if i+1 >= len(body) {
				return 0, fmt.Errorf("truncated \\x escape in %q", s)
			}
			var v int
			if _, err := fmt.Sscanf(body[i:i+2], "%02x", &v); err != nil {
				return 0, fmt.Errorf("bad \\x escape in %q", s)
			}
			i += 2
			return byte(v), nil
		case 'n':
			return '\n', nil
		case 'r':
			return '\r', nil
		case 't':
			return '\t', nil
		default:
			return e, nil // escaped literal (\\ \- \] \[ \^ \*)
		}
	}
	if len(body) == 0 {
		return nfa.Class{}, fmt.Errorf("empty symbol set %q", s)
	}
	for i < len(body) {
		lo, err := readOne()
		if err != nil {
			return nfa.Class{}, err
		}
		if i < len(body) && body[i] == '-' && i+1 < len(body) {
			i++ // consume '-'
			hi, err := readOne()
			if err != nil {
				return nfa.Class{}, err
			}
			if hi < lo {
				return nfa.Class{}, fmt.Errorf("reversed range in %q", s)
			}
			cls.AddRange(lo, hi)
			continue
		}
		cls.Add(lo)
	}
	if negate {
		cls = cls.Negate()
	}
	return cls, nil
}

// FormatSymbolSet renders a class in ANML symbol-set syntax, using ranges
// where possible.
func FormatSymbolSet(cls nfa.Class) string {
	if cls.Count() == 256 {
		return "*"
	}
	syms := cls.Symbols(nil)
	sort.Slice(syms, func(a, b int) bool { return syms[a] < syms[b] })
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < len(syms); {
		j := i
		for j+1 < len(syms) && syms[j+1] == syms[j]+1 {
			j++
		}
		if j-i >= 2 {
			sb.WriteString(escapeSym(syms[i]))
			sb.WriteByte('-')
			sb.WriteString(escapeSym(syms[j]))
		} else {
			for k := i; k <= j; k++ {
				sb.WriteString(escapeSym(syms[k]))
			}
		}
		i = j + 1
	}
	sb.WriteByte(']')
	return sb.String()
}

func escapeSym(c byte) string {
	switch c {
	case '\\', '-', ']', '[', '^', '*':
		return "\\" + string(c)
	}
	if c >= 0x20 && c <= 0x7e {
		return string(c)
	}
	return fmt.Sprintf("\\x%02x", c)
}

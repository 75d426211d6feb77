package nfa

import (
	"fmt"
	"io"
)

// WriteDOT renders the automaton in Graphviz DOT form for inspection.
// Start-of-data states are drawn as diamonds, all-input states as double
// diamonds (peripheries=2), reporting states as double circles.
func (n *NFA) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n", n.name); err != nil {
		return err
	}
	for q := range n.states {
		s := n.states[q]
		shape := "circle"
		periph := 1
		if s.Flags&StartOfData != 0 {
			shape = "diamond"
		}
		if s.Flags&AllInput != 0 {
			shape = "diamond"
			periph = 2
		}
		if s.Flags&Report != 0 {
			periph = 2
			if shape == "circle" {
				shape = "doublecircle"
			}
		}
		label := s.Label.String()
		if s.Flags&Report != 0 {
			label = fmt.Sprintf("%s\\nR%d", label, s.ReportCode)
		}
		if _, err := fmt.Fprintf(w, "  n%d [shape=%s peripheries=%d label=\"%d:%s\"];\n",
			q, shape, periph, q, label); err != nil {
			return err
		}
	}
	for q := range n.states {
		for _, c := range n.Succ(StateID(q)) {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", q, c); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

package experiments

import (
	"fmt"
	"io"
	"strings"
)

// table is a minimal aligned-text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }

// WriteTable1 prints Table 1 with generated-vs-paper columns.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	fmt.Fprintln(w, "Table 1: Benchmark characteristics (generated | paper)")
	t := &table{header: []string{"#", "Benchmark", "States", "Range", "CCs",
		"Half-Cores", "Segs(1R)", "Segs(4R)", "CutSym",
		"States*", "Range*", "CCs*", "HC*"}}
	for i, r := range rows {
		t.add(d(i+1), r.Name, d(r.States), d(r.Range), d(r.CCs),
			d(r.HalfCores), d(r.Segments1), d(r.Segments4),
			fmt.Sprintf("%q", r.CutSym),
			d(r.PaperStates), d(r.PaperRange), d(r.PaperCCs), d(r.PaperHalfCores))
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "(* = paper-reported values at full ruleset scale)")
	return err
}

// WriteFig3 prints Figure 3 as a table.
func WriteFig3(w io.Writer, rows []Fig3Row) error {
	fmt.Fprintln(w, "Figure 3: Range of input symbols (min/avg/max over 256 symbols)")
	t := &table{header: []string{"Benchmark", "States", "MinRange", "AvgRange", "MaxRange", "Avg/States"}}
	for _, r := range rows {
		ratio := 0.0
		if r.States > 0 {
			ratio = r.AvgRange / float64(r.States)
		}
		t.add(r.Name, d(r.States), d(r.MinRange), f1(r.AvgRange), d(r.MaxRange),
			fmt.Sprintf("%.1f%%", 100*ratio))
	}
	return t.write(w)
}

// WriteFig8 prints one panel of Figure 8.
func WriteFig8(w io.Writer, sum *Fig8Summary) error {
	fmt.Fprintf(w, "Figure 8: Speedup over sequential AP (%s input)\n", sum.Size)
	t := &table{header: []string{"Benchmark", "PAP-1rank", "PAP-4ranks", "Ideal-1R", "Ideal-4R"}}
	for _, r := range sum.Rows {
		t.add(r.Name, f2(r.PAP1Rank), f2(r.PAP4Rank), f1(r.Ideal1), f1(r.Ideal4))
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Geomean: %.2fx (1 rank), %.2fx (4 ranks)\n", sum.Geomean1, sum.Geomean4)
	return err
}

// WriteFig9 prints Figure 9.
func WriteFig9(w io.Writer, rows []Fig9Row) error {
	fmt.Fprintln(w, "Figure 9: Flow reduction (log-scale axis in the paper)")
	t := &table{header: []string{"Benchmark", "InRange", "AfterCC", "AfterParent", "AvgActive"}}
	for _, r := range rows {
		t.add(r.Name, d(r.FlowsInRange), d(r.FlowsAfterCC), d(r.FlowsAfterParent), f1(r.AvgActiveFlows))
	}
	return t.write(w)
}

// WriteFig10 prints Figure 10.
func WriteFig10(w io.Writer, rows []Fig10Row) error {
	fmt.Fprintln(w, "Figure 10: Flow switching overhead")
	t := &table{header: []string{"Benchmark", "Overhead(%)"}}
	for _, r := range rows {
		t.add(r.Name, f2(r.OverheadPct))
	}
	return t.write(w)
}

// WriteFig11 prints Figure 11.
func WriteFig11(w io.Writer, rows []Fig11Row) error {
	fmt.Fprintln(w, "Figure 11: False-path invalidation time at host (AP symbol cycles)")
	t := &table{header: []string{"Benchmark", "Cycles"}}
	for _, r := range rows {
		t.add(r.Name, fmt.Sprintf("%d", int64(r.Cycles)))
	}
	return t.write(w)
}

// WriteFig12 prints Figure 12.
func WriteFig12(w io.Writer, rows []Fig12Row) error {
	fmt.Fprintln(w, "Figure 12: Increase in output report events due to false paths (log scale)")
	t := &table{header: []string{"Benchmark", "Emitted/True"}}
	for _, r := range rows {
		t.add(r.Name, f2(r.Increase))
	}
	return t.write(w)
}

// WriteSwitch prints the §5.3 context-switch sensitivity study.
func WriteSwitch(w io.Writer, sum *SwitchSummary) error {
	fmt.Fprintln(w, "Context-switch sensitivity (§5.3): speedup at 1x/2x/4x switch cost")
	t := &table{header: []string{"Benchmark", "3cyc", "6cyc", "12cyc", "loss@2x(%)", "loss@4x(%)"}}
	for _, r := range sum.Rows {
		t.add(r.Name, f2(r.Speedup1x), f2(r.Speedup2x), f2(r.Speedup4x),
			f2(r.Slowdown2x), f2(r.Slowdown4x))
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Average loss: %.2f%% (2x), %.2f%% (4x); worst case %.2f%% / %.2f%%\n",
		sum.AvgSlowdown2, sum.AvgSlowdown4, sum.MaxSlowdown2, sum.MaxSlowdown4)
	return err
}

// WriteEnergy prints the §5.3 extra-transitions analysis.
func WriteEnergy(w io.Writer, sum *EnergySummary) error {
	fmt.Fprintln(w, "Extra transitions per symbol vs sequential (§5.3 energy proxy)")
	t := &table{header: []string{"Benchmark", "Ratio"}}
	for _, r := range sum.Rows {
		t.add(r.Name, f2(r.TransitionRatio))
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Average: %.2fx (paper reports 2.4x)\n", sum.Avg)
	return err
}

// WriteDFA prints the DFA-baseline study.
func WriteDFA(w io.Writer, rows []DFARow) error {
	fmt.Fprintln(w, "DFA baseline: subset-construction size and Mytkowicz data-parallel DFA ([25]) vs PAP")
	t := &table{header: []string{"Benchmark", "NFA", "DFA", "DFA-speedup", "PAP-speedup"}}
	for _, r := range rows {
		dstates, dsp := "blow-up", "-"
		if r.Converted {
			dstates = d(r.DFAStates)
			dsp = f2(r.DFASpeedup)
		}
		t.add(r.Name, d(r.NFAStates), dstates, dsp, f2(r.PAPSpeedup))
	}
	if err := t.write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "(blow-up = exceeds min(%dx NFA states, %d) DFA states, §2.1)\n", DFABudgetFactor, DFABudgetCap)
	return err
}

// WriteAblation prints the design-choice study.
func WriteAblation(w io.Writer, rows []AblationRow) error {
	fmt.Fprintln(w, "Ablation: speedup with each flow optimization disabled")
	t := &table{header: []string{"Benchmark", "Full", "-CCmerge", "-Parent", "-Converge", "-Deactivate", "-FIV"}}
	for _, r := range rows {
		t.add(r.Name, f2(r.Full), f2(r.NoCCMerge), f2(r.NoParentMerge),
			f2(r.NoConvergence), f2(r.NoDeactivation), f2(r.NoFIV))
	}
	return t.write(w)
}

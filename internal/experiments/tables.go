package experiments

import (
	"pap/internal/ap"
	"pap/internal/core"
	"pap/internal/dfa"
)

// Table1Row reproduces one row of Table 1, with the paper's reported
// characteristics alongside the generated automaton's.
type Table1Row struct {
	Name      string
	Suite     string
	States    int
	CutSym    byte
	Range     int // range of the chosen cut symbol
	CCs       int
	HalfCores int
	Segments1 int // input segments, 1 rank
	Segments4 int // input segments, 4 ranks

	PaperStates, PaperRange, PaperCCs, PaperHalfCores int
}

// Table1 regenerates Table 1. The cut symbol (and hence Range) is chosen
// by profiling the 1 MB-class trace, as §3.1 prescribes.
func (e *Env) Table1() ([]Table1Row, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, spec := range specs {
		n, err := e.Automaton(spec.Name)
		if err != nil {
			return nil, err
		}
		trace, err := e.Trace(spec.Name, Size1MB)
		if err != nil {
			return nil, err
		}
		cfg := e.baseConfig(spec, 1)
		plan, err := core.NewPlan(n, trace, cfg)
		if err != nil {
			return nil, err
		}
		_, ccs := n.ConnectedComponents()
		board1, _ := ap.NewBoard(1)
		board4, _ := ap.NewBoard(4)
		rows = append(rows, Table1Row{
			Name:           spec.Name,
			Suite:          spec.Suite,
			States:         n.Len(),
			CutSym:         plan.CutSym,
			Range:          n.RangeSize(plan.CutSym),
			CCs:            ccs,
			HalfCores:      plan.Placement.HalfCores,
			Segments1:      board1.Segments(plan.Placement),
			Segments4:      board4.Segments(plan.Placement),
			PaperStates:    spec.PaperStates,
			PaperRange:     spec.PaperRange,
			PaperCCs:       spec.PaperCCs,
			PaperHalfCores: spec.PaperHalfCores,
		})
	}
	return rows, nil
}

// Fig3Row is one bar of Figure 3: total states and the min/avg/max range
// over all 256 input symbols.
type Fig3Row struct {
	Name     string
	States   int
	MinRange int
	AvgRange float64
	MaxRange int
}

// Fig3 regenerates Figure 3.
func (e *Env) Fig3() ([]Fig3Row, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for _, spec := range specs {
		n, err := e.Automaton(spec.Name)
		if err != nil {
			return nil, err
		}
		rs := n.RangeStatsAll()
		rows = append(rows, Fig3Row{
			Name:     spec.Name,
			States:   n.Len(),
			MinRange: rs.Min,
			AvgRange: rs.Avg,
			MaxRange: rs.Max,
		})
	}
	return rows, nil
}

// Fig8Row is one benchmark's speedup cluster in Figure 8.
type Fig8Row struct {
	Name     string
	PAP1Rank float64
	PAP4Rank float64
	Ideal1   float64
	Ideal4   float64
}

// Fig8Summary carries the geometric means the paper quotes in §5.1.
type Fig8Summary struct {
	Size               SizeClass
	Rows               []Fig8Row
	Geomean1, Geomean4 float64
}

// Fig8 regenerates one input-size panel of Figure 8.
func (e *Env) Fig8(size SizeClass) (*Fig8Summary, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	sum := &Fig8Summary{Size: size}
	var s1, s4 []float64
	for _, spec := range specs {
		r1, err := e.Run(spec.Name, 1, size)
		if err != nil {
			return nil, err
		}
		r4, err := e.Run(spec.Name, 4, size)
		if err != nil {
			return nil, err
		}
		sum.Rows = append(sum.Rows, Fig8Row{
			Name:     spec.Name,
			PAP1Rank: r1.Speedup,
			PAP4Rank: r4.Speedup,
			Ideal1:   r1.IdealSpeedup,
			Ideal4:   r4.IdealSpeedup,
		})
		s1 = append(s1, r1.Speedup)
		s4 = append(s4, r4.Speedup)
	}
	sum.Geomean1, sum.Geomean4 = geomean(s1), geomean(s4)
	return sum, nil
}

// Fig9Row is one benchmark of Figure 9: the flow-reduction chain (note the
// paper plots it on a log axis).
type Fig9Row struct {
	Name             string
	FlowsInRange     int
	FlowsAfterCC     int
	FlowsAfterParent int
	AvgActiveFlows   float64
}

// Fig9 regenerates Figure 9 (1 MB stream, 1 rank, as in the paper's text).
func (e *Env) Fig9() ([]Fig9Row, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, spec := range specs {
		res, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		sp := res.Plan.SymbolPlanFor(res.Plan.CutSym)
		rows = append(rows, Fig9Row{
			Name:             spec.Name,
			FlowsInRange:     sp.RangeSize,
			FlowsAfterCC:     sp.FlowsAfterCC,
			FlowsAfterParent: sp.FlowsAfterParent,
			AvgActiveFlows:   res.AvgActiveFlows,
		})
	}
	return rows, nil
}

// Fig10Row is one benchmark of Figure 10: average flow-switching overhead.
type Fig10Row struct {
	Name        string
	OverheadPct float64
}

// Fig10 regenerates Figure 10 (1 MB stream, 1 rank).
func (e *Env) Fig10() ([]Fig10Row, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for _, spec := range specs {
		res, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{Name: spec.Name, OverheadPct: res.SwitchOverheadPct})
	}
	return rows, nil
}

// Fig11Row is one benchmark of Figure 11: average false-path invalidation
// time at the host, in AP symbol cycles.
type Fig11Row struct {
	Name   string
	Cycles ap.Cycles
}

// Fig11 regenerates Figure 11 (1 MB stream, 1 rank).
func (e *Env) Fig11() ([]Fig11Row, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, spec := range specs {
		res, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{Name: spec.Name, Cycles: res.AvgHostCycles})
	}
	return rows, nil
}

// Fig12Row is one benchmark of Figure 12: the increase in output report
// events due to false paths (log scale in the paper).
type Fig12Row struct {
	Name     string
	Increase float64 // emitted events / true events
}

// Fig12 regenerates Figure 12 (1 MB stream, 1 rank).
func (e *Env) Fig12() ([]Fig12Row, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for _, spec := range specs {
		res, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig12Row{Name: spec.Name, Increase: res.ReportIncrease})
	}
	return rows, nil
}

// SwitchRow is one benchmark of the §5.3 context-switch sensitivity study.
type SwitchRow struct {
	Name       string
	Speedup1x  float64 // 3 cycles (default)
	Speedup2x  float64 // 6 cycles
	Speedup4x  float64 // 12 cycles
	Slowdown2x float64 // % speedup lost at 2×
	Slowdown4x float64 // % speedup lost at 4×
}

// SwitchSummary aggregates the study (§5.3 quotes 0.5% / 1.2% average).
type SwitchSummary struct {
	Rows                       []SwitchRow
	AvgSlowdown2, AvgSlowdown4 float64
	MaxSlowdown2, MaxSlowdown4 float64
}

// SwitchSensitivity regenerates the §5.3 study (1 MB stream, 1 rank).
func (e *Env) SwitchSensitivity() (*SwitchSummary, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	sum := &SwitchSummary{}
	for _, spec := range specs {
		base, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		r2, err := e.RunConfigured(spec.Name, 1, Size1MB, "switch2x",
			func(c *core.Config) { c.SwitchCycles = 2 * ap.FlowSwitchCycles })
		if err != nil {
			return nil, err
		}
		r4, err := e.RunConfigured(spec.Name, 1, Size1MB, "switch4x",
			func(c *core.Config) { c.SwitchCycles = 4 * ap.FlowSwitchCycles })
		if err != nil {
			return nil, err
		}
		row := SwitchRow{
			Name:      spec.Name,
			Speedup1x: base.Speedup,
			Speedup2x: r2.Speedup,
			Speedup4x: r4.Speedup,
		}
		row.Slowdown2x = 100 * (1 - r2.Speedup/base.Speedup)
		row.Slowdown4x = 100 * (1 - r4.Speedup/base.Speedup)
		sum.Rows = append(sum.Rows, row)
		sum.AvgSlowdown2 += row.Slowdown2x
		sum.AvgSlowdown4 += row.Slowdown4x
		if row.Slowdown2x > sum.MaxSlowdown2 {
			sum.MaxSlowdown2 = row.Slowdown2x
		}
		if row.Slowdown4x > sum.MaxSlowdown4 {
			sum.MaxSlowdown4 = row.Slowdown4x
		}
	}
	if len(sum.Rows) > 0 {
		sum.AvgSlowdown2 /= float64(len(sum.Rows))
		sum.AvgSlowdown4 /= float64(len(sum.Rows))
	}
	return sum, nil
}

// EnergyRow is one benchmark of the §5.3 dynamic-energy proxy: extra state
// transitions per input symbol relative to sequential execution (the paper
// reports 2.4× on average).
type EnergyRow struct {
	Name            string
	TransitionRatio float64
}

// EnergySummary aggregates the transition-ratio study.
type EnergySummary struct {
	Rows []EnergyRow
	Avg  float64
}

// Energy regenerates the §5.3 extra-transitions analysis (1 MB, 1 rank).
func (e *Env) Energy() (*EnergySummary, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	sum := &EnergySummary{}
	for _, spec := range specs {
		res, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		sum.Rows = append(sum.Rows, EnergyRow{Name: spec.Name, TransitionRatio: res.TransitionRatio})
		sum.Avg += res.TransitionRatio
	}
	if len(sum.Rows) > 0 {
		sum.Avg /= float64(len(sum.Rows))
	}
	return sum, nil
}

// DFARow is one benchmark of the DFA-baseline study: whether the NFA
// converts to a DFA at all within a state budget (the paper's §2.1 argument
// that conversion explodes), and — when it does — how the Mytkowicz
// data-parallel DFA matcher ([25], the CPU prior work PAP generalises)
// compares against PAP at the same parallelism.
type DFARow struct {
	Name      string
	NFAStates int
	DFAStates int  // valid when Converted
	Converted bool // false: blow-up beyond the state budget
	// DFASpeedup is the Mytkowicz matcher's algorithmic speedup with one
	// processor per input chunk (chunks = PAP's 1-rank segments).
	DFASpeedup float64
	PAPSpeedup float64
}

// DFABudgetFactor bounds subset construction at factor × NFA states, and
// DFABudgetCap bounds it absolutely (subset stepping over dense automata
// is expensive; past tens of thousands of states the §2.1 point is made).
const (
	DFABudgetFactor = 16
	DFABudgetCap    = 1 << 15
)

// DFAComparison runs the DFA-baseline study (1 MB stream, 1 rank).
func (e *Env) DFAComparison() ([]DFARow, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	var rows []DFARow
	for _, spec := range specs {
		n, err := e.Automaton(spec.Name)
		if err != nil {
			return nil, err
		}
		pres, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		row := DFARow{Name: spec.Name, NFAStates: n.Len(), PAPSpeedup: pres.Speedup}
		budget := DFABudgetFactor * n.Len()
		if budget > DFABudgetCap {
			budget = DFABudgetCap
		}
		d, err := dfa.Convert(n, budget)
		if err == nil {
			d = d.Minimize() // strongest possible baseline: fewest lanes
			row.Converted = true
			row.DFAStates = d.Len()
			trace, err := e.Trace(spec.Name, Size1MB)
			if err != nil {
				return nil, err
			}
			pr, err := d.RunParallel(trace, pres.Plan.Segments, 16)
			if err != nil {
				return nil, err
			}
			row.DFASpeedup = pr.Speedup
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow quantifies each flow-reduction optimization's contribution
// (a DESIGN.md design-choice study; not a paper figure, but implied by
// §5.2's analysis).
type AblationRow struct {
	Name           string
	Full           float64 // default speedup
	NoCCMerge      float64
	NoParentMerge  float64
	NoConvergence  float64
	NoDeactivation float64
	NoFIV          float64
}

// Ablation runs the design-choice study on the selected benchmarks.
func (e *Env) Ablation() ([]AblationRow, error) {
	specs, err := e.Specs()
	if err != nil {
		return nil, err
	}
	mutations := []struct {
		key string
		fn  func(*core.Config)
	}{
		{"noCC", func(c *core.Config) { c.DisableCCMerge = true }},
		{"noParent", func(c *core.Config) { c.DisableParentMerge = true }},
		{"noConv", func(c *core.Config) { c.DisableConvergence = true }},
		{"noDeact", func(c *core.Config) { c.DisableDeactivation = true }},
		{"noFIV", func(c *core.Config) { c.DisableFIV = true }},
	}
	var rows []AblationRow
	for _, spec := range specs {
		base, err := e.Run(spec.Name, 1, Size1MB)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Name: spec.Name, Full: base.Speedup}
		outs := []*float64{&row.NoCCMerge, &row.NoParentMerge, &row.NoConvergence,
			&row.NoDeactivation, &row.NoFIV}
		for i, m := range mutations {
			r, err := e.RunConfigured(spec.Name, 1, Size1MB, m.key, m.fn)
			if err != nil {
				return nil, err
			}
			*outs[i] = r.Speedup
		}
		rows = append(rows, row)
	}
	return rows, nil
}

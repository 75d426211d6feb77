// Package report renders the experiment results as a self-contained HTML
// document with inline SVG bar charts — the repository's equivalent of the
// paper's Figures 3 and 8-12. No external assets or JavaScript.
package report

import (
	"fmt"
	"html"
	"io"
	"math"

	"pap/internal/experiments"
)

// series is one bar group per benchmark.
type series struct {
	label  string
	values []float64
}

// chart is one figure: grouped (possibly log-scale) vertical bars.
type chart struct {
	title    string
	subtitle string
	names    []string // x categories (benchmarks)
	series   []series
	logScale bool
	unit     string
}

const (
	chartW   = 960
	chartH   = 320
	marginL  = 70
	marginB  = 110
	marginT  = 40
	plotW    = chartW - marginL - 20
	plotH    = chartH - marginT - marginB
	palette0 = "#4878a8"
	palette1 = "#e8903a"
	palette2 = "#6aa84f"
	palette3 = "#a85c78"
)

var palette = []string{palette0, palette1, palette2, palette3}

// render writes the chart as inline SVG.
func (c *chart) render(w io.Writer) {
	maxV := 0.0
	minPos := math.Inf(1)
	for _, s := range c.series {
		for _, v := range s.values {
			if v > maxV {
				maxV = v
			}
			if v > 0 && v < minPos {
				minPos = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	if math.IsInf(minPos, 1) {
		minPos = 1
	}

	scaleY := func(v float64) float64 {
		if c.logScale {
			lo := math.Log10(math.Max(minPos/2, 1e-3))
			hi := math.Log10(maxV)
			if hi <= lo {
				hi = lo + 1
			}
			if v <= 0 {
				return 0
			}
			return plotH * (math.Log10(v) - lo) / (hi - lo)
		}
		return plotH * v / maxV
	}

	fmt.Fprintf(w, `<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" role="img">`+"\n", chartW, chartH)
	fmt.Fprintf(w, `<text x="%d" y="20" font-size="15" font-weight="bold">%s</text>`+"\n",
		marginL, html.EscapeString(c.title))
	if c.subtitle != "" {
		fmt.Fprintf(w, `<text x="%d" y="36" font-size="11" fill="#555">%s</text>`+"\n",
			marginL, html.EscapeString(c.subtitle))
	}
	// Axes.
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n",
		marginL, marginT, marginL, marginT+plotH)
	// Y reference lines.
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		v := maxV * frac
		y := float64(marginT+plotH) - scaleY(v)
		fmt.Fprintf(w, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, marginL+plotW, y)
		fmt.Fprintf(w, `<text x="%d" y="%.1f" font-size="10" text-anchor="end" fill="#555">%s</text>`+"\n",
			marginL-5, y+3, formatTick(v))
	}

	groups := len(c.names)
	if groups == 0 {
		fmt.Fprint(w, "</svg>\n")
		return
	}
	groupW := float64(plotW) / float64(groups)
	barW := groupW * 0.8 / float64(len(c.series))
	for gi, name := range c.names {
		gx := float64(marginL) + groupW*float64(gi) + groupW*0.1
		for si, s := range c.series {
			v := 0.0
			if gi < len(s.values) {
				v = s.values[gi]
			}
			h := scaleY(v)
			x := gx + barW*float64(si)
			y := float64(marginT+plotH) - h
			fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s">`+
				`<title>%s %s: %s%s</title></rect>`+"\n",
				x, y, barW*0.92, h, palette[si%len(palette)],
				html.EscapeString(name), html.EscapeString(s.label), formatTick(v),
				html.EscapeString(c.unit))
		}
		// Rotated category label.
		lx := gx + groupW*0.4
		ly := float64(marginT + plotH + 8)
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="10" text-anchor="end" `+
			`transform="rotate(-45 %.1f %.1f)">%s</text>`+"\n",
			lx, ly+6, lx, ly+6, html.EscapeString(name))
	}
	// Legend.
	lx := marginL + plotW - 160
	for si, s := range c.series {
		y := marginT + 14*si
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
			lx, y, palette[si%len(palette)])
		fmt.Fprintf(w, `<text x="%d" y="%d" font-size="10">%s</text>`+"\n",
			lx+14, y+9, html.EscapeString(s.label))
	}
	fmt.Fprint(w, "</svg>\n")
}

func formatTick(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Generate runs every figure through env and writes the HTML report.
func Generate(w io.Writer, env *experiments.Env) error {
	o := env.Options()
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Parallel Automata Processor — regenerated evaluation</title>
<style>body{font-family:sans-serif;max-width:1000px;margin:24px auto;color:#222}
h1{font-size:22px} p.meta{color:#555;font-size:13px} svg{margin:18px 0;border:1px solid #eee}</style>
</head><body>
<h1>Parallel Automata Processor — regenerated evaluation</h1>
<p class="meta">Subramaniyan &amp; Das, ISCA 2017 — reproduced at scale %.2f,
streams %d / %d bytes, seed %d. Shapes, not absolute values, are the
comparison target; see EXPERIMENTS.md.</p>
`, o.Scale, o.Size1MB, o.Size10MB, o.Seed)

	// Figure 3.
	f3, err := env.Fig3()
	if err != nil {
		return err
	}
	c := &chart{
		title:    "Figure 3 — Range of input symbols",
		subtitle: "states vs min/avg/max range over the 256 symbols (log scale)",
		logScale: true,
	}
	var states, minR, avgR, maxR []float64
	for _, r := range f3 {
		c.names = append(c.names, r.Name)
		states = append(states, float64(r.States))
		minR = append(minR, float64(r.MinRange))
		avgR = append(avgR, r.AvgRange)
		maxR = append(maxR, float64(r.MaxRange))
	}
	c.series = []series{{"#states", states}, {"min", minR}, {"avg", avgR}, {"max", maxR}}
	c.render(w)

	// Figure 8, both sizes.
	for _, size := range []experiments.SizeClass{experiments.Size1MB, experiments.Size10MB} {
		sum, err := env.Fig8(size)
		if err != nil {
			return err
		}
		c := &chart{
			title: fmt.Sprintf("Figure 8 — Speedup over sequential AP (%s class)", size),
			subtitle: fmt.Sprintf("geomean %.2fx (1 rank) / %.2fx (4 ranks)",
				sum.Geomean1, sum.Geomean4),
			unit: "x",
		}
		var s1, s4, i1, i4 []float64
		for _, r := range sum.Rows {
			c.names = append(c.names, r.Name)
			s1 = append(s1, r.PAP1Rank)
			s4 = append(s4, r.PAP4Rank)
			i1 = append(i1, r.Ideal1)
			i4 = append(i4, r.Ideal4)
		}
		c.series = []series{{"PAP-1rank", s1}, {"PAP-4ranks", s4}, {"Ideal-1R", i1}, {"Ideal-4R", i4}}
		c.render(w)
	}

	// Figure 9.
	f9, err := env.Fig9()
	if err != nil {
		return err
	}
	c = &chart{
		title:    "Figure 9 — Flow reduction",
		subtitle: "enumeration paths in range → after CC merge → after parent merge → avg active (log scale)",
		logScale: true,
	}
	var inR, afC, afP, act []float64
	for _, r := range f9 {
		c.names = append(c.names, r.Name)
		inR = append(inR, float64(r.FlowsInRange))
		afC = append(afC, float64(r.FlowsAfterCC))
		afP = append(afP, float64(r.FlowsAfterParent))
		act = append(act, r.AvgActiveFlows)
	}
	c.series = []series{{"in range", inR}, {"after CC", afC}, {"after parent", afP}, {"avg active", act}}
	c.render(w)

	// Figures 10-12.
	f10, err := env.Fig10()
	if err != nil {
		return err
	}
	c = &chart{title: "Figure 10 — Flow switching overhead", unit: "%"}
	var ov []float64
	for _, r := range f10 {
		c.names = append(c.names, r.Name)
		ov = append(ov, r.OverheadPct)
	}
	c.series = []series{{"overhead %", ov}}
	c.render(w)

	f11, err := env.Fig11()
	if err != nil {
		return err
	}
	c = &chart{title: "Figure 11 — False-path invalidation time at host", unit: " cycles"}
	var cyc []float64
	for _, r := range f11 {
		c.names = append(c.names, r.Name)
		cyc = append(cyc, float64(r.Cycles))
	}
	c.series = []series{{"Tcpu (symbol cycles)", cyc}}
	c.render(w)

	f12, err := env.Fig12()
	if err != nil {
		return err
	}
	c = &chart{title: "Figure 12 — Increase in output report events", logScale: true, unit: "x"}
	var inc []float64
	for _, r := range f12 {
		c.names = append(c.names, r.Name)
		inc = append(inc, r.Increase)
	}
	c.series = []series{{"emitted / true", inc}}
	c.render(w)

	fmt.Fprint(w, "</body></html>\n")
	return nil
}

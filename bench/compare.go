package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// verdict of one workload x metric row of -compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worseBy returns by what share of a's value b is worse than a; negative
// when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-300 // any rise from zero is unbounded
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares two summaries of one metric. An exact metric is worse as
// soon as it differs in the bad direction at all. Otherwise a side whose
// median round lies further than the bound from its best round was disturbed
// for most of its run and cannot resolve a change of that size, unless every
// round of one side beats every round of the other.
func judge(m metricDef, a, b summary) string {
	by := worseBy(m.Better, a.Value, b.Value)
	if m.Exact {
		if by > 0 {
			return verdictWorse
		}
		return verdictOK
	}
	if spread := max(a.spread(), b.spread()); spread > m.Bound {
		lo := func(s summary) float64 { return min(s.Best, s.Worst) }
		hi := func(s summary) float64 { return max(s.Best, s.Worst) }
		if apart := hi(a) < lo(b) || hi(b) < lo(a); !apart {
			return verdictUnresolved
		}
	}
	if by > m.Bound {
		return verdictWorse
	}
	return verdictOK
}

// spread is how far the median round lies from the reported value, as a
// share of the value. For a metric that reports its best round it is large
// when the host was disturbed for most of the run, in which case the best
// round may be a disturbed one too; for one that reports its median it is 0.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Median-s.Value) / s.Value
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// change and the bound with a verdict, and every exact count that differs.
// It returns the exit code: 1 on any worse row or differing exact count.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(w, "bench -compare:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultFile) int {
	sameInputs := a.Env.Seed == b.Env.Seed
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	worse, unresolved := 0, 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing in b)\t\t\t\t\t%s\n", ra.Workload, verdictWorse)
			worse++
			continue
		}
		if sameInputs && ra.SHA256 != rb.SHA256 {
			fmt.Fprintf(tw, "%s\tsha256\t%s\t%s\t\t\t%s\n", ra.Workload, ra.SHA256[:12], rb.SHA256[:12], verdictWorse)
			worse++
		}
		for _, m := range endToEndMetrics {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			if m.Name == "model_speedup" && !sameInputs {
				m.Exact = false // another seed is another input: only the bound applies
			}
			v := judge(m, sa, sb)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, m.Name, sa.Value, sb.Value, 100*worseBy(m.Better, sa.Value, sb.Value), 100*m.Bound, v)
		}
		if !sameInputs {
			continue
		}
		for _, name := range exactLayerMetrics() {
			va, okA := ra.PerLayer[name]
			vb, okB := rb.PerLayer[name]
			if okA && okB && va != vb {
				fmt.Fprintf(tw, "%s\t%s\t%.17g\t%.17g\t\texact\t%s\n", ra.Workload, name, va, vb, verdictWorse)
				worse++
			}
		}
		if ra.Shape != rb.Shape {
			fmt.Fprintf(tw, "%s\tshape\t%+v\t%+v\t\texact\t%s\n", ra.Workload, ra.Shape, rb.Shape, verdictWorse)
			worse++
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// smallEnv returns a fast environment over a representative benchmark
// subset for unit tests.
func smallEnv(benchmarks ...string) *Env {
	if benchmarks == nil {
		benchmarks = []string{"ExactMatch", "Dotstar03", "Bro217"}
	}
	return NewEnv(Options{
		Scale:      0.02,
		Size1MB:    16 << 10,
		Size10MB:   64 << 10,
		Seed:       7,
		Workers:    2,
		Benchmarks: benchmarks,
	})
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.25 || o.Size1MB != 128<<10 || o.Size10MB != 1<<20 || o.Seed != 42 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestSizeClassString(t *testing.T) {
	if Size1MB.String() != "1 MB" || Size10MB.String() != "10 MB" {
		t.Fatal("SizeClass strings wrong")
	}
}

func TestEnvCaching(t *testing.T) {
	e := smallEnv()
	n1, err := e.Automaton("ExactMatch")
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := e.Automaton("ExactMatch")
	if n1 != n2 {
		t.Fatal("automaton not cached")
	}
	t1, err := e.Trace("ExactMatch", Size1MB)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := e.Trace("ExactMatch", Size1MB)
	if &t1[0] != &t2[0] {
		t.Fatal("trace not cached")
	}
	r1, err := e.Run("ExactMatch", 1, Size1MB)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e.Run("ExactMatch", 1, Size1MB)
	if r1 != r2 {
		t.Fatal("run not cached")
	}
}

func TestEnvUnknownBenchmark(t *testing.T) {
	e := smallEnv("NoSuch")
	if _, err := e.Specs(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := e.Automaton("NoSuch"); err == nil {
		t.Fatal("Automaton(NoSuch) succeeded")
	}
}

func TestTable1(t *testing.T) {
	e := smallEnv()
	rows, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.States <= 0 || r.CCs <= 0 || r.Segments1 <= 0 || r.Segments4 < r.Segments1 {
			t.Fatalf("bad row %+v", r)
		}
		if r.PaperStates == 0 {
			t.Fatalf("paper columns missing: %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ExactMatch") {
		t.Fatalf("output missing benchmark:\n%s", buf.String())
	}
}

func TestFig3(t *testing.T) {
	e := smallEnv()
	rows, err := e.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MinRange > r.MaxRange || r.AvgRange < float64(r.MinRange) || r.AvgRange > float64(r.MaxRange) {
			t.Fatalf("inconsistent ranges: %+v", r)
		}
		if r.MaxRange > r.States {
			t.Fatalf("range exceeds states: %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteFig3(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFig8AndFriends(t *testing.T) {
	e := smallEnv()
	sum, err := e.Fig8(Size1MB)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 3 || sum.Geomean1 < 1 || sum.Geomean4 < sum.Geomean1 {
		t.Fatalf("fig8 = %+v", sum)
	}
	for _, r := range sum.Rows {
		if r.PAP1Rank < 1 || r.PAP4Rank < 1 {
			t.Fatalf("speedup < 1: %+v", r)
		}
		if r.PAP1Rank > r.Ideal1+1e-9 || r.PAP4Rank > r.Ideal4+1e-9 {
			t.Fatalf("speedup above ideal: %+v", r)
		}
	}

	f9, err := e.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f9 {
		if r.FlowsAfterCC > r.FlowsInRange && r.FlowsInRange > 0 {
			t.Fatalf("CC merging increased flows: %+v", r)
		}
	}
	f10, err := e.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f10 {
		if r.OverheadPct < 0 || r.OverheadPct > 100 {
			t.Fatalf("overhead out of range: %+v", r)
		}
	}
	f11, err := e.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f11 {
		if r.Cycles < 0 {
			t.Fatalf("negative host cycles: %+v", r)
		}
	}
	f12, err := e.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f12 {
		if r.Increase < 1 {
			t.Fatalf("report increase < 1: %+v", r)
		}
	}

	var buf bytes.Buffer
	for _, fn := range []func() error{
		func() error { return WriteFig8(&buf, sum) },
		func() error { return WriteFig9(&buf, f9) },
		func() error { return WriteFig10(&buf, f10) },
		func() error { return WriteFig11(&buf, f11) },
		func() error { return WriteFig12(&buf, f12) },
	} {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "Geomean") {
		t.Fatal("fig8 output missing geomean")
	}
}

func TestSwitchSensitivity(t *testing.T) {
	e := smallEnv("Dotstar03")
	sum, err := e.SwitchSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Rows[0]
	// Higher switch cost must not increase speedup.
	if r.Speedup2x > r.Speedup1x+1e-9 || r.Speedup4x > r.Speedup2x+1e-9 {
		t.Fatalf("switch cost not monotone: %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteSwitch(&buf, sum); err != nil {
		t.Fatal(err)
	}
}

func TestEnergy(t *testing.T) {
	e := smallEnv("Dotstar03")
	sum, err := e.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Avg < 1 {
		t.Fatalf("energy ratio %v < 1", sum.Avg)
	}
	var buf bytes.Buffer
	if err := WriteEnergy(&buf, sum); err != nil {
		t.Fatal(err)
	}
}

func TestAblation(t *testing.T) {
	e := smallEnv("Bro217")
	rows, err := e.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Full < 1 || r.NoCCMerge < 1 || r.NoFIV < 1 {
		t.Fatalf("ablation speedups < 1: %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteAblation(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestDFAComparison(t *testing.T) {
	e := smallEnv("ExactMatch", "Bro217")
	rows, err := e.DFAComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Converted {
			if r.DFAStates <= 0 || r.DFASpeedup <= 0 {
				t.Fatalf("converted row incomplete: %+v", r)
			}
		}
		if r.PAPSpeedup < 1 {
			t.Fatalf("PAP speedup %v", r.PAPSpeedup)
		}
	}
	var buf bytes.Buffer
	if err := WriteDFA(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DFA baseline") {
		t.Fatal("missing header")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{4, 16}); math.Abs(g-8) > 1e-9 {
		t.Fatalf("geomean = %v, want 8", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Fatalf("geomean with zero = %v", g)
	}
}

func TestTableFormatter(t *testing.T) {
	tb := &table{header: []string{"A", "LongHeader"}}
	tb.add("x", "1")
	tb.add("longcell", "2")
	var buf bytes.Buffer
	if err := tb.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("missing rule: %q", lines[1])
	}
}

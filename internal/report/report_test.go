package report

import (
	"strings"
	"testing"

	"pap/internal/experiments"
)

func TestGenerate(t *testing.T) {
	env := experiments.NewEnv(experiments.Options{
		Scale:      0.02,
		Size1MB:    8 << 10,
		Size10MB:   16 << 10,
		Seed:       5,
		Workers:    2,
		Benchmarks: []string{"ExactMatch", "Bro217"},
	})
	var sb strings.Builder
	if err := Generate(&sb, env); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Figure 3",
		"Figure 8",
		"Figure 9",
		"Figure 10",
		"Figure 11",
		"Figure 12",
		"<svg",
		"ExactMatch",
		"Bro217",
		"geomean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if n := strings.Count(out, "<svg"); n != 7 {
		t.Errorf("got %d charts, want 7", n)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Error("report contains NaN/Inf values")
	}
}

func TestChartEmpty(t *testing.T) {
	c := &chart{title: "empty"}
	var sb strings.Builder
	c.render(&sb)
	if !strings.Contains(sb.String(), "</svg>") {
		t.Fatal("empty chart did not close SVG")
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		12345: "12345",
		42.19: "42.2",
		3.14:  "3.14",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}

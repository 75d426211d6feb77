package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	hundred := make([]float64, 101)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := percentile(hundred, p); got != p {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
}

func TestOfRounds(t *testing.T) {
	rounds := []float64{10, 30, 20, 50, 40}
	s := ofRounds(rounds, 123, "higher")
	if s.Value != 30 || s.Median != 30 || s.Best != 50 || s.Worst != 10 || s.Samples != 123 || len(s.Rounds) != 5 {
		t.Errorf("ofRounds = %+v", s)
	}
	if s := ofRounds(rounds, 123, "lower"); s.Value != 30 || s.Best != 10 || s.Worst != 50 {
		t.Errorf("ofRounds, lower is better = %+v", s)
	}
	if got := ofRounds(nil, 0, "lower"); got.Value != 0 || got.Rounds != nil {
		t.Errorf("ofRounds of nothing = %+v", got)
	}
}

// A disturbed host slows most rounds down; the reported value must stay with
// the undisturbed ones, whichever direction is better.
func TestQuietestRound(t *testing.T) {
	mbps := []float64{80, 101, 79, 80, 78, 79, 81, 80, 100, 79} // 2 of 10 rounds quiet
	if s := quietestRound(mbps, 10, "higher"); s.Value != 101 || s.Median > 81 || s.Worst != 78 {
		t.Errorf("throughput: %+v", s)
	}
	ms := []float64{12.5, 12.5, 12.4, 12.6, 10.1, 12.5, 9.9, 12.5, 12.6, 12.7}
	if s := quietestRound(ms, 10, "lower"); s.Value != 9.9 || s.Median < 12 || s.Worst != 12.7 {
		t.Errorf("latency: %+v", s)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestLadderSelf(t *testing.T) {
	// A rung above a skip path can be cheaper than the rung below it.
	got := ladderSelf([]float64{2, 10, 7, 8})
	if want := []float64{2, 8, -3, 1}; !slices.Equal(got, want) {
		t.Errorf("ladderSelf = %v, want %v", got, want)
	}
	if len(ladderSelf(nil)) != 0 {
		t.Error("ladderSelf(nil) not empty")
	}
}

func TestSelfNS(t *testing.T) {
	parent := span{ID: 1, StartNS: 100, EndNS: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []span{{StartNS: 120, EndNS: 150}}, 70},
		{"overlapping count once", []span{{StartNS: 120, EndNS: 150}, {StartNS: 140, EndNS: 160}}, 60},
		{"clipped to the parent", []span{{StartNS: 50, EndNS: 110}, {StartNS: 190, EndNS: 400}}, 80},
		{"outside", []span{{StartNS: 300, EndNS: 400}}, 100},
		{"nested children", []span{{StartNS: 110, EndNS: 190}, {StartNS: 120, EndNS: 130}}, 20},
	} {
		if got := selfNS(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfNS = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerNestsHandlerInClient(t *testing.T) {
	tr := newTracer("w")
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	client := tr.id()
	handler := tr.id()
	tr.record(handler, client, "server.handler", at(2), at(7), nil)
	tr.record(client, 0, "http.request", at(0), at(10), nil)
	tr.record(tr.id(), 0, "server.handler", at(20), at(60), nil)         // registration: no client span
	tr.record(tr.id(), 0, "http.request", at(70), at(80), nil)           // a request whose handler was not traced
	tr.record(tr.id(), client, "http.request.routed", at(3), at(4), nil) // another name: not a child
	if got := tr.nestedSelfMS("http.request", "server.handler"); !slices.Equal(got, []float64{5}) {
		t.Errorf("nestedSelfMS = %v, want [5]", got)
	}
	if got := tr.named("server.handler", true); !slices.Equal(got, []float64{5}) {
		t.Errorf("child handler spans = %v, want [5]", got)
	}
	if got := tr.named("server.handler", false); len(got) != 2 {
		t.Errorf("all handler spans = %v, want two", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.id(); id != 0 {
		t.Errorf("nil tracer id = %d", id)
	}
	tr.record(0, 0, "x", time.Now(), time.Now(), nil) // must not panic
}

func TestWorseBy(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := worseBy("higher", 100, 90); !near(got, 0.10) {
		t.Errorf("throughput 100 -> 90: worse by %v", got)
	}
	if got := worseBy("lower", 100, 90); !near(got, -0.10) {
		t.Errorf("latency 100 -> 90: worse by %v", got)
	}
	if got := worseBy("lower", 0, 0); got != 0 {
		t.Errorf("0 -> 0: worse by %v", got)
	}
	if got := worseBy("lower", 0, 0.001); got <= 1 {
		t.Errorf("a rise from 0 must be worse than any bound, got %v", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(v float64) summary { return summary{Value: v, Best: v, Median: v * 0.99, Worst: v * 0.98} }
	wide := func(v float64) summary { return summary{Value: v, Best: v, Median: v * 0.8, Worst: v * 0.6} }
	mbps := metricDef{Name: "match_mbps", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "error_rate", Better: "lower", Exact: true}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"within the bound", mbps, tight(100), tight(95), verdictOK},
		{"beyond the bound", mbps, tight(100), tight(85), verdictWorse},
		{"better", mbps, tight(100), tight(130), verdictOK},
		{"too noisy to tell", mbps, wide(100), wide(95), verdictUnresolved},
		{"noisy but every round apart and worse", mbps, wide(100), wide(50), verdictWorse},
		{"noisy but every round apart and better", mbps, wide(100), wide(200), verdictOK},
		{"one side noisy", mbps, tight(100), wide(110), verdictUnresolved},
		{"exact: any rise", exact, summary{Value: 0}, summary{Value: 0.001}, verdictWorse},
		{"exact: equal", exact, summary{Value: 0}, summary{Value: 0}, verdictOK},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

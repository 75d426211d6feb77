package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values. It does not modify xs.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; 0 for no values. It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summary is how an end-to-end metric is reported. A run measures it once
// per round (a round value is itself a median over the round's operations,
// or a percentile over its requests); Value is what the run reports.
type summary struct {
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Best    float64   `json:"best"`
	Worst   float64   `json:"worst"`
	Rounds  []float64 `json:"rounds"`
	Samples int       `json:"samples"` // operations timed in all rounds together
}

// ofRounds summarises per-round values and reports their median.
func ofRounds(rounds []float64, samples int, better string) summary {
	if len(rounds) == 0 {
		return summary{}
	}
	s := summary{Median: median(rounds), Best: rounds[0], Worst: rounds[0], Rounds: rounds, Samples: samples}
	for _, v := range rounds {
		if beats(better, v, s.Best) {
			s.Best = v
		}
		if beats(better, s.Worst, v) {
			s.Worst = v
		}
	}
	s.Value = s.Median
	return s
}

// beats reports whether v is a better reading than w of a metric for which
// better ("higher" or "lower") readings are better.
func beats(better string, v, w float64) bool {
	if better == "higher" {
		return v > w
	}
	return v < w
}

// quietestRound is ofRounds for timings taken on a shared host: it reports
// the best round. Interference there only ever slows a round down and comes
// in stretches of seconds to a minute, so the median of the rounds lands in
// whichever state the host was in for most of the run, while the best round
// is the one the host disturbed least. It is still a median (or a percentile)
// over that round's operations, so one lucky operation does not set it.
func quietestRound(rounds []float64, samples int, better string) summary {
	s := ofRounds(rounds, samples, better)
	s.Value = s.Best
	return s
}

// candidatePercentiles are the tail percentiles the harness may report,
// each with the number of samples it takes to have ten beyond it.
var candidatePercentiles = []struct {
	p      float64
	needed int
}{{99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}, {75, 40}}

// highestPercentile returns the highest candidate percentile that has at
// least ten of n samples beyond it, or 50 when none has.
func highestPercentile(n int) float64 {
	for _, c := range candidatePercentiles {
		if n >= c.needed {
			return c.p
		}
	}
	return 50
}

// ladderSelf turns the durations of a ladder of rungs, each measured on the
// same bytes from outside and ordered bottom-up, into self times: a rung's
// duration minus that of the rung below. A negative self time means the
// rung above did less work than the one below (a skip path, say).
func ladderSelf(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	for i, d := range rungs {
		self[i] = d
		if i > 0 {
			self[i] -= rungs[i-1]
		}
	}
	return self
}

// span is one timed call into a layer.
type span struct {
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent"` // 0 for a root span
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns"`
	EndNS    int64          `json:"end_ns"`
	Workload string         `json:"workload"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// selfNS returns the span's duration minus the part of its interval that
// the given child spans cover (overlapping children count once).
func selfNS(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - covered
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run turns tracing off.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// id reserves a span ID before the call it names starts, so the ID can
// travel with the call (as an HTTP header, say).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent int64, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Workload: t.workload, Attrs: attrs,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the durations, in ms, of every span with the given name;
// with childOnly, only of those that have a parent.
func (t *tracer) named(name string, childOnly bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (s.Parent != 0 || !childOnly) {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// nestedSelfMS returns, for every span called parentName that has children
// called childName, the parent's self time in ms.
func (t *tracer) nestedSelfMS(parentName, childName string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Name == childName && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == parentName && len(kids[s.ID]) > 0 {
			out = append(out, float64(selfNS(s, kids[s.ID]))/1e6)
		}
	}
	return out
}

// writeFile writes the spans as one JSON object.
func (t *tracer) writeFile(path, sha string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"workload": t.workload, "sha256": sha, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

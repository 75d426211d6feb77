package main

import (
	"fmt"
	"slices"
	"time"

	"pap"
	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/regex"
)

// match is the part of a result the output check compares.
type match struct {
	Code   int32 `json:"code"`
	Offset int64 `json:"offset"`
}

func cmpMatch(a, b match) int {
	if a.Offset != b.Offset {
		if a.Offset < b.Offset {
			return -1
		}
		return 1
	}
	return int(a.Code) - int(b.Code)
}

func fromPap(ms []pap.Match) []match {
	out := make([]match, len(ms))
	for i, m := range ms {
		out[i] = match{m.Code, m.Offset}
	}
	return out
}

// sameMatches reports whether got, in any order, is the reference list.
// It sorts got in place; ref is kept sorted.
func sameMatches(got, ref []match) bool {
	if len(got) != len(ref) {
		return false
	}
	slices.SortFunc(got, cmpMatch)
	return slices.Equal(got, ref)
}

// shape holds the exact counts that say what a workload makes the program
// do. They repeat bit for bit for a fixed seed; the guards read them.
type shape struct {
	States         int     `json:"nfa.states"`
	Matches        int     `json:"pap.matches"`
	SkippedFrac    float64 `json:"prefilter.skipped_frac"`
	AvgFrontier    float64 `json:"engine.avg_frontier"`
	MaxFrontier    int     `json:"engine.max_frontier"`
	Transitions    int64   `json:"engine.transitions"`
	Segments       float64 `json:"core.segments"`
	CutRange       float64 `json:"core.cut_range"`
	AvgActiveFlows float64 `json:"core.avg_active_flows"`
	ModelSpeedup   float64 `json:"model_speedup"`
}

// prepared is a workload compiled and ready to be measured: its inputs cut
// into calls, the reference output of every call, and its shape.
type prepared struct {
	*workload
	genS float64

	n   *nfa.NFA
	tab *engine.Tables
	a   *pap.Automaton

	units, payloads       [][]byte
	refUnits, refPayloads [][]match
	refStream             []match

	shape shape
}

func split(b []byte, size int) [][]byte {
	var out [][]byte
	for ; len(b) >= size; b = b[size:] {
		out = append(out, b[:size:size])
	}
	return out
}

// reference computes the match set of one input on the scalar path: the
// sparse engine stepping every symbol, no skip of any kind.
func reference(n *nfa.NFA, input []byte) []match {
	res := engine.RunEngineOpts(n, input, engine.SparseKind, nil, engine.RunOpts{DisableBaselineSkip: true})
	reps := engine.DedupeReports(res.Reports)
	out := make([]match, len(reps))
	for i, r := range reps {
		out[i] = match{r.Code, r.Offset}
	}
	slices.SortFunc(out, cmpMatch)
	return out
}

// prepare generates and compiles the workload, computes the references
// (untimed) and the shape, and refuses a workload whose guard fails.
func prepare(name string, seed int64) (*prepared, error) {
	t0 := time.Now()
	w, err := generate(name, seed)
	if err != nil {
		return nil, err
	}
	p := &prepared{workload: w, genS: time.Since(t0).Seconds()}
	if p.n, err = regex.CompilePatterns(name, w.patterns); err != nil {
		return nil, fmt.Errorf("%s: regex.CompilePatterns: %w", name, err)
	}
	p.tab = engine.NewTables(p.n)
	if p.a, err = pap.Compile(name, w.patterns); err != nil {
		return nil, fmt.Errorf("%s: pap.Compile: %w", name, err)
	}
	p.units = split(w.corpus, w.unit)
	p.payloads = split(w.corpus, w.payload)
	for _, u := range p.units {
		p.refUnits = append(p.refUnits, reference(p.n, u))
	}
	if w.payload == w.unit {
		p.refPayloads = p.refUnits
	} else {
		for _, b := range p.payloads {
			p.refPayloads = append(p.refPayloads, reference(p.n, b))
		}
	}
	if len(p.units) == 1 {
		p.refStream = p.refUnits[0]
	} else {
		p.refStream = reference(p.n, w.corpus)
	}
	if err := p.measureShape(); err != nil {
		return nil, err
	}
	if err := p.shape.guard(name); err != nil {
		return nil, err
	}
	return p, nil
}

// measureShape runs each unit once through the calls whose counters
// describe the workload, checking outputs on the way.
func (p *prepared) measureShape() error {
	s := &p.shape
	s.States = p.a.Stats().States
	var skipped, sumFrontier int64
	for i, u := range p.units {
		ms, info := p.a.MatchWithInfo(u, pap.EngineAuto)
		if !sameMatches(fromPap(ms), p.refUnits[i]) {
			return fmt.Errorf("%s: Match differs from the reference on unit %d", p.name, i)
		}
		s.Matches += len(ms)
		skipped += info.PrefilterSkippedBytes + info.BaselineSkippedBytes

		res := engine.RunEngineOpts(p.n, u, engine.Auto, p.tab, engine.RunOpts{})
		sumFrontier += res.SumFrontier
		s.MaxFrontier = max(s.MaxFrontier, res.MaxFrontier)
		s.Transitions += res.Transitions

		rep, err := p.a.MatchParallel(u, pap.DefaultConfig(1))
		if err != nil {
			return fmt.Errorf("%s: MatchParallel on unit %d: %w", p.name, i, err)
		}
		if !rep.Stats.Verified || !sameMatches(fromPap(rep.Matches), p.refUnits[i]) {
			return fmt.Errorf("%s: MatchParallel differs from the reference on unit %d", p.name, i)
		}
		s.Segments += float64(rep.Stats.Segments)
		s.CutRange += float64(rep.Stats.CutRange)
		s.AvgActiveFlows += rep.Stats.AvgActiveFlows
		s.ModelSpeedup += rep.Stats.Speedup
	}
	bytes, calls := float64(len(p.units)*p.unit), float64(len(p.units))
	s.SkippedFrac = float64(skipped) / bytes
	s.AvgFrontier = float64(sumFrontier) / bytes
	s.Segments /= calls
	s.CutRange /= calls
	s.AvgActiveFlows /= calls
	s.ModelSpeedup /= calls
	return nil
}

// guard checks that the workload does what its row in the README says, so
// that a generator change cannot silently turn it into another workload.
func (s shape) guard(name string) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s: shape guard: "+format, append([]any{name}, args...)...)
	}
	if s.Matches == 0 {
		return bad("no matches")
	}
	switch name {
	case "snort_sparse":
		if s.SkippedFrac < 0.9 {
			return bad("prefilter.skipped_frac %.3f < 0.9", s.SkippedFrac)
		}
	case "dotstar_dense":
		if s.SkippedFrac > 0.05 {
			return bad("prefilter.skipped_frac %.3f > 0.05", s.SkippedFrac)
		}
		if s.AvgFrontier < 50 {
			return bad("engine.avg_frontier %.1f < 50", s.AvgFrontier)
		}
	case "needle_requests":
		if s.SkippedFrac < 0.95 {
			return bad("prefilter.skipped_frac %.3f < 0.95", s.SkippedFrac)
		}
		if s.AvgActiveFlows > 1.1 {
			return bad("core.avg_active_flows %.2f > 1.1", s.AvgActiveFlows)
		}
	case "clamav_enum":
		if s.AvgActiveFlows < 2 {
			return bad("core.avg_active_flows %.2f < 2", s.AvgActiveFlows)
		}
		if s.CutRange < 100 {
			return bad("core.cut_range %.0f < 100", s.CutRange)
		}
	}
	return nil
}

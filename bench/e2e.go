package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"pap"
	"pap/internal/server"
)

// plan says how long a run measures. Of a round, each library phase
// (match, stream, parallel) gets 1.5 parts and the HTTP phase 2.5.
type plan struct {
	rounds    int
	libSlice  time.Duration
	httpSlice time.Duration
	setupReps int
}

// total is the time the rounds take.
func (pl plan) total() time.Duration {
	return time.Duration(pl.rounds) * (3*pl.libSlice + pl.httpSlice)
}

// planFor spreads seconds of measuring over ten interleaved rounds, so that
// a disturbed stretch of a few seconds on the shared host hits every phase
// alike and leaves every phase some undisturbed rounds.
func planFor(seconds float64) plan {
	const rounds = 10
	part := seconds / rounds / (3*1.5 + 2.5)
	return plan{
		rounds:    rounds,
		libSlice:  time.Duration(1.5 * part * float64(time.Second)),
		httpSlice: time.Duration(2.5 * part * float64(time.Second)),
		setupReps: 200,
	}
}

// quickPlan is one short round: enough to exercise every phase and check
// every output, not to measure.
func quickPlan() plan {
	return plan{rounds: 1, libSlice: 200 * time.Millisecond, httpSlice: 200 * time.Millisecond, setupReps: 2}
}

// counts tallies operations across every phase for error_rate.
type counts struct{ attempted, failed int }

func (c *counts) add(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// heapMB returns the live heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupOnce times what a user waits for before the first answer: compile,
// a cold match (lazy tables fill), a papd replica coming up, the ruleset
// registered over HTTP and the first 200 from /match. It returns the time
// and the heap the set-up holds.
func (p *prepared) setupOnce() (seconds, heapDeltaMB float64, err error) {
	before := heapMB()
	ln, err := listen()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	a, err := pap.Compile(p.name, p.patterns)
	if err != nil {
		ln.Close()
		return 0, 0, err
	}
	cold := a.Match(p.payloads[0])
	n := startNode(ln, server.Config{}, nil, "")
	defer n.stop()
	c := newClient()
	defer closeClient(c)
	if err := p.register(c, n); err != nil {
		return 0, 0, err
	}
	code, body, err := post(c, "POST", n.url("/v1/automata/"+p.name+"/match"), p.payloads[0], 0)
	seconds = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK || !checkMatchBody(body, p.refPayloads[0], true) || !sameMatches(fromPap(cold), p.refPayloads[0]) {
		return 0, 0, fmt.Errorf("%s: set-up: first match wrong (status %d)", p.name, code)
	}
	heapDeltaMB = heapMB() - before
	runtime.KeepAlive(a)
	return seconds, heapDeltaMB, nil
}

// phase runs pass, one pass over the corpus, repeatedly for slice (at least
// once) and returns the throughput of each pass. pass returns how long its
// timed part took and whether its outputs were right.
func (p *prepared) phase(slice time.Duration, c *counts, pass func() (time.Duration, bool)) []float64 {
	var out []float64
	for deadline := time.Now().Add(slice); len(out) == 0 || time.Now().Before(deadline); {
		d, ok := pass()
		c.add(ok)
		out = append(out, mbps(len(p.corpus), d))
	}
	return out
}

// matchPass times Automaton.Match over every unit (one pass over the
// corpus) and checks the results after the clock has stopped.
func (p *prepared) matchPass(results [][]pap.Match) (time.Duration, bool) {
	t0 := time.Now()
	for i, u := range p.units {
		results[i] = p.a.Match(u)
	}
	d := time.Since(t0)
	ok := true
	for i, ms := range results {
		ok = ok && sameMatches(fromPap(ms), p.refUnits[i])
	}
	return d, ok
}

// streamPass times one Stream fed the corpus chunk by chunk, its matches
// collected in *collected (reused from pass to pass).
func (p *prepared) streamPass(collected *[]match) (time.Duration, bool) {
	got := (*collected)[:0]
	t0 := time.Now()
	s := p.a.NewStream()
	for off := 0; off < len(p.corpus); off += p.chunk {
		for _, m := range s.Write(p.corpus[off:min(off+p.chunk, len(p.corpus))]) {
			got = append(got, match{m.Code, m.Offset})
		}
	}
	err := s.Close()
	d := time.Since(t0)
	*collected = got
	return d, err == nil && sameMatches(got, p.refStream)
}

// parallelPass times MatchParallel over every unit; the modelled speed-up
// must be the one the shape recorded, every time.
func (p *prepared) parallelPass(reports []*pap.Report) (time.Duration, bool) {
	cfg := pap.DefaultConfig(1)
	var err error
	t0 := time.Now()
	for i, u := range p.units {
		var e error
		if reports[i], e = p.a.MatchParallel(u, cfg); e != nil {
			err = e
		}
	}
	d := time.Since(t0)
	if err != nil {
		return d, false
	}
	ok, speedup := true, 0.0
	for i, r := range reports {
		ok = ok && r.Stats.Verified && sameMatches(fromPap(r.Matches), p.refUnits[i])
		speedup += r.Stats.Speedup
	}
	return d, ok && speedup/float64(len(reports)) == p.shape.ModelSpeedup
}

// result is one workload's outcome in either mode.
type result struct {
	Workload  string             `json:"workload"`
	SHA256    string             `json:"sha256"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Shape     shape              `json:"shape"`
	Ladder    []string           `json:"ladder,omitempty"`
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func (p *prepared) runEndToEnd(pl plan) (*result, error) {
	var c counts
	e2e := make(map[string]summary)

	// Fresh set-ups for an eighth of the run: at least five however slow they
	// are, at most setupReps however fast.
	var setupS, memMB []float64
	budget := time.Now().Add(pl.total() / 8)
	for i := 0; i < pl.setupReps && (i < 5 || time.Now().Before(budget)); i++ {
		s, m, err := p.setupOnce()
		c.add(err == nil)
		if err != nil {
			return nil, err
		}
		setupS, memMB = append(setupS, s), append(memMB, m)
	}
	e2e["setup_s"] = ofRounds(setupS, len(setupS), "lower")
	e2e["mem_mb"] = ofRounds(memMB, len(memMB), "lower")

	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n := startNode(ln, server.Config{}, nil, "")
	defer n.stop()
	admin := newClient()
	defer closeClient(admin)
	if err := p.register(admin, n); err != nil {
		return nil, err
	}

	var (
		results   = make([][]pap.Match, len(p.units))
		reports   = make([]*pap.Report, len(p.units))
		collected []match
		rounds    = map[string][]float64{}
		samples   = map[string]int{}
	)
	note := func(name string, roundValue float64, n int) {
		rounds[name] = append(rounds[name], roundValue)
		samples[name] += n
	}
	for r := 0; r < pl.rounds; r++ {
		v := p.phase(pl.libSlice, &c, func() (time.Duration, bool) { return p.matchPass(results) })
		note("match_mbps", median(v), len(v))
		v = p.phase(pl.libSlice, &c, func() (time.Duration, bool) { return p.streamPass(&collected) })
		note("stream_mbps", median(v), len(v))
		v = p.phase(pl.libSlice, &c, func() (time.Duration, bool) { return p.parallelPass(reports) })
		note("parallel_mbps", median(v), len(v))

		l := p.matchLoad(n, "", runtime.NumCPU(), 0, pl.httpSlice, nil, "")
		c.attempted += l.attempted
		c.failed += l.failed
		note("http_rps", l.rps(), len(l.latMS))
		note("http_p50_ms", percentile(l.latMS, 50), len(l.latMS))
	}
	for _, m := range endToEndMetrics {
		if v, ok := rounds[m.Name]; ok {
			e2e[m.Name] = quietestRound(v, samples[m.Name], m.Better)
		}
	}
	e2e["model_speedup"] = ofRounds([]float64{p.shape.ModelSpeedup}, samples["parallel_mbps"], "higher")
	e2e["error_rate"] = ofRounds([]float64{float64(c.failed) / float64(c.attempted)}, c.attempted, "lower")
	return &result{Workload: p.name, SHA256: p.sha, Attempted: c.attempted, Failed: c.failed, EndToEnd: e2e, Shape: p.shape}, nil
}

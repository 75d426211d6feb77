package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pap"
	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/prefilter"
	"pap/internal/regex"
	"pap/internal/server"
)

// The traced run measures one layer at a time from outside: every call into
// a layer's public functions is one span. The calls do not nest (the harness
// makes each of them itself), so they form a ladder: a layer's self time is
// its span minus the span of the rung below on the same bytes. The one true
// nesting is http.request ⊃ server.handler.

// libSlots and httpSlots count the timed slots of a traced run; an HTTP
// slot is twice as long as a library slot.
const (
	libSlots  = 23
	httpSlots = 6
)

// layerRun is the state of one workload's traced run.
type layerRun struct {
	p    *prepared
	tr   *tracer
	slot time.Duration
	c    counts
	m    map[string]float64

	directLatMS []float64 // client latencies of the direct HTTP phase
}

// timed runs op for one slot (at least once), one span per run, checks the
// output of each run after its clock has stopped, and returns the median
// duration in seconds.
func (r *layerRun) timed(name string, op func(), check func() bool) float64 {
	var secs []float64
	for deadline := time.Now().Add(r.slot); len(secs) == 0 || time.Now().Before(deadline); {
		id, t0 := r.tr.id(), time.Now()
		op()
		t1 := time.Now()
		r.tr.record(id, 0, name, t0, t1, nil)
		r.c.add(check == nil || check())
		secs = append(secs, t1.Sub(t0).Seconds())
	}
	return median(secs)
}

// once times fn a few times without spans (set-up costs) and returns the
// median in seconds.
func once(fn func()) float64 {
	var secs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// mallocs returns how many heap objects fn allocates. Nothing else may run
// meanwhile, so it is only used while no server is up.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func (r *layerRun) mbps(seconds float64) float64 { return float64(len(r.p.corpus)) / 1e6 / seconds }

func fromReports(reps []engine.Report) []match {
	reps = engine.DedupeReports(reps)
	out := make([]match, len(reps))
	for i, x := range reps {
		out[i] = match{x.Code, x.Offset}
	}
	return out
}

// stepAll drives e over input through StepBatchOf, as a run loop would.
func stepAll(e engine.Engine, input []byte, emit engine.EmitFunc) {
	for i := 0; i < len(input); {
		c, _, _ := engine.StepBatchOf(e, input[i:], int64(i), emit)
		i += c
	}
}

// runPerLayer measures the per-layer metrics and writes the spans to
// outDir/trace-<workload>.json.
func (p *prepared) runPerLayer(pl plan, outDir string) (*result, error) {
	r := &layerRun{p: p, tr: newTracer(p.name), m: map[string]float64{},
		slot: pl.total() / (libSlots + 2*httpSlots)}
	r.m["bench.gen_s"] = p.genS
	r.m["bench.timer_ns"] = timerNS()

	r.shapeCounts()
	r.regexAndPrefilter()
	kernelS := r.engineLayer()
	coreRunS, err := r.coreLayer()
	if err != nil {
		return nil, err
	}
	matchS, directS := r.papLayer(coreRunS)
	reqLadder, err := r.serverLayer(directS)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: p.name, SHA256: p.sha, Attempted: r.c.attempted, Failed: r.c.failed, PerLayer: r.m, Shape: p.shape}
	passMS := []float64{
		1e3 * float64(len(p.corpus)) / 1e6 / r.m["prefilter.scan_mbps"],
		1e3 * kernelS,
		1e3 * float64(len(p.corpus)) / 1e6 / r.m["engine.run_mbps.auto"],
		1e3 * matchS,
	}
	res.Ladder = append(res.Ladder, "layer-tax ladder, ms per pass over the corpus (self = rung - rung below):")
	res.Ladder = append(res.Ladder, ladderLines([]string{"prefilter.scan", "engine.kernel.auto", "engine.run.auto", "pap.match"}, passMS)...)
	res.Ladder = append(res.Ladder, "layer-tax ladder, ms per request (p50):")
	res.Ladder = append(res.Ladder, ladderLines([]string{"pap.match (direct)", "server.handler", "http.request"}, reqLadder)...)
	nested := r.tr.nestedSelfMS("http.request", "server.handler")
	res.Ladder = append(res.Ladder, fmt.Sprintf("  http.request self time by nesting (client span minus its handler span): p50 %.4f ms over %d requests", median(nested), len(nested)))
	top := highestPercentile(len(r.directLatMS))
	res.Ladder = append(res.Ladder, fmt.Sprintf("  http.request p%g = %.4f ms: the highest percentile with ten of its %d samples beyond it",
		top, percentile(r.directLatMS, top), len(r.directLatMS)))
	for _, k := range []string{"engine.default_over_best", "core.golden_share", "core.host_scaling", "server.handler_tax_p50_ms", "bench.trace_overhead_pct"} {
		res.Ladder = append(res.Ladder, fmt.Sprintf("  %s = %.4g", k, r.m[k]))
	}

	path := filepath.Join(outDir, "trace-"+p.name+".json")
	if err := r.tr.writeFile(path, p.sha); err != nil {
		return nil, err
	}
	res.Ladder = append(res.Ladder, fmt.Sprintf("  %d spans written to %s", len(r.tr.spans), path))
	return res, nil
}

func ladderLines(names []string, ms []float64) []string {
	var out []string
	for i, self := range ladderSelf(ms) {
		out = append(out, fmt.Sprintf("  %-20s %12.4f   self %+12.4f", names[i], ms[i], self))
	}
	return out
}

// timerNS is the cost of one start/stop pair of the clock.
func timerNS() float64 {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d.Nanoseconds()) / n
}

// shapeCounts copies the exact counts the shape already holds and adds the
// ones only the traced run needs.
func (r *layerRun) shapeCounts() {
	p, s := r.p, r.p.shape
	r.m["nfa.states"] = float64(s.States)
	r.m["pap.matches"] = float64(s.Matches)
	r.m["prefilter.skipped_frac"] = s.SkippedFrac
	r.m["engine.avg_frontier"] = s.AvgFrontier
	r.m["engine.max_frontier"] = float64(s.MaxFrontier)
	r.m["engine.transitions"] = float64(s.Transitions)

	start := prefilter.StartClass(p.n)
	hits := 0
	for _, b := range p.corpus {
		if start.Test(b) {
			hits++
		}
	}
	r.m["prefilter.hit_frac"] = float64(hits) / float64(len(p.corpus))

	var switches int64
	var cache engine.CacheStats
	for _, u := range p.units {
		e := engine.New(engine.Auto, p.n, p.tab)
		stepAll(e, u, nil)
		switches += engine.SwitchesOf(e)
		c := engine.RunEngineOpts(p.n, u, engine.LazyDFAKind, p.tab, engine.RunOpts{}).Cache
		cache.Hits += c.Hits
		cache.Misses += c.Misses
		cache.FellBack = cache.FellBack || c.FellBack
	}
	r.m["engine.switches"] = float64(switches)
	r.m["engine.lazydfa_hit_ratio"] = 0
	if n := cache.Hits + cache.Misses; n > 0 {
		r.m["engine.lazydfa_hit_ratio"] = float64(cache.Hits) / float64(n)
	}
	r.m["engine.lazydfa_fellback"] = 0
	if cache.FellBack {
		r.m["engine.lazydfa_fellback"] = 1
	}
}

func (r *layerRun) regexAndPrefilter() {
	p := r.p
	r.m["regex.compile_s"] = once(func() {
		if _, err := regex.CompilePatterns(p.name, p.patterns); err != nil {
			panic(err) // prepare compiled the same patterns
		}
	})
	var pf *prefilter.Prefilter
	r.m["prefilter.build_s"] = once(func() { pf = prefilter.Build(p.n) })

	scan := pf.StartScanner()
	candidates := 0
	r.m["prefilter.scan_mbps"] = r.mbps(r.timed("prefilter.scan", func() {
		candidates = 0
		for _, u := range p.units {
			for i := scan.NextIn(u, 0, len(u)); i < len(u); i = scan.NextIn(u, i+1, len(u)) {
				candidates++
			}
		}
	}, func() bool { return float64(candidates)/float64(len(p.corpus)) == r.m["prefilter.hit_frac"] }))

	r.m["prefilter.literal_scan_mbps"] = 0
	if pf.HasLiterals() {
		r.m["prefilter.literal_scan_mbps"] = r.mbps(r.timed("prefilter.literal_scan", func() {
			for _, u := range p.units {
				for i := pf.NextLiteral(u, 0); i < len(u); i = pf.NextLiteral(u, i+1) {
				}
			}
		}, nil))
	}
}

// engineLayer returns the seconds per pass of the auto step kernel, the
// ladder's second rung.
func (r *layerRun) engineLayer() (kernelAutoS float64) {
	p := r.p
	r.m["engine.tables_build_s"] = once(func() { engine.NewTables(p.n).BuildAll() })

	got := make([][]engine.Report, len(p.units))
	check := func() bool {
		ok := true
		for i := range got {
			ok = ok && sameMatches(fromReports(got[i]), p.refUnits[i])
		}
		return ok
	}
	for _, k := range []engine.Kind{engine.BitKind, engine.Auto} {
		s := r.timed("engine.kernel."+k.String(), func() {
			for i, u := range p.units {
				e := engine.New(k, p.n, p.tab)
				engine.SetBaselineSkip(e, false)
				out := got[i][:0]
				stepAll(e, u, func(x engine.Report) { out = append(out, x) })
				got[i] = out
			}
		}, check)
		r.m["engine.kernel_mbps."+k.String()] = r.mbps(s)
		if k == engine.Auto {
			kernelAutoS = s
		}
	}

	best := 0.0
	run := func(k engine.Kind, opts engine.RunOpts) func() {
		return func() {
			for i, u := range p.units {
				got[i] = engine.RunEngineOpts(p.n, u, k, p.tab, opts).Reports
			}
		}
	}
	asPap := engine.RunOpts{LiteralPrefilter: true} // what pap.Match passes
	for _, k := range []engine.Kind{engine.SparseKind, engine.BitKind, engine.Auto, engine.LazyDFAKind, engine.MetaKind} {
		v := r.mbps(r.timed("engine.run."+k.String(), run(k, asPap), check))
		r.m["engine.run_mbps."+k.String()] = v
		best = max(best, v)
	}
	r.m["engine.default_over_best"] = r.m["engine.run_mbps.auto"] / best
	r.m["engine.run_allocs.auto"] = mallocs(run(engine.Auto, asPap)) / float64(len(p.units))
	scored := r.timed("engine.run.auto.scored", run(engine.Auto, engine.RunOpts{LiteralPrefilter: true, Scored: true}), check)
	r.m["engine.scored_tax"] = scored / (float64(len(p.corpus)) / 1e6 / r.m["engine.run_mbps.auto"])
	return kernelAutoS
}

// coreLayer returns the seconds per pass of core.Run in the configuration
// MatchParallel uses.
func (r *layerRun) coreLayer() (runS float64, err error) {
	p := r.p
	results := make([]*core.Result, len(p.units))
	check := func() bool {
		ok := true
		for i, res := range results {
			ok = ok && res != nil && res.Correct && sameMatches(fromReports(res.Reports), p.refUnits[i])
		}
		return ok
	}
	plansFor := func(cfg core.Config) ([]*core.Plan, error) {
		plans := make([]*core.Plan, len(p.units))
		for i, u := range p.units {
			var err error
			if plans[i], err = core.NewPlan(p.n, u, cfg); err != nil {
				return nil, fmt.Errorf("%s: core.NewPlan: %w", p.name, err)
			}
		}
		return plans, nil
	}
	execute := func(plans []*core.Plan) func() {
		return func() {
			for i, u := range p.units {
				results[i], _ = plans[i].Execute(u) // a nil result fails the check
			}
		}
	}
	variant := func(name string, edit func(*core.Config)) error {
		cfg := core.DefaultConfig(1)
		edit(&cfg)
		plans, err := plansFor(cfg)
		if err != nil {
			return err
		}
		r.m["core.execute_mbps."+name] = r.mbps(r.timed("core.execute."+name, execute(plans), check))
		if name == "seg4" {
			r.m["core.execute_allocs.seg4"] = mallocs(execute(plans)) / float64(len(p.units))
			prev := runtime.GOMAXPROCS(1)
			one := r.mbps(r.timed("core.execute.seg4.gomaxprocs1", execute(plans), check))
			runtime.GOMAXPROCS(prev)
			r.m["core.host_scaling"] = r.m["core.execute_mbps.seg4"] / one
		}
		return nil
	}
	for _, k := range []int{1, 2, 4, 8} {
		if err := variant(fmt.Sprintf("seg%d", k), func(c *core.Config) { c.MaxSegments = k }); err != nil {
			return 0, err
		}
	}
	if err := variant("serial4", func(c *core.Config) { c.MaxSegments, c.SegmentParallel = 4, false }); err != nil {
		return 0, err
	}
	if err := variant("sfa4", func(c *core.Config) { c.MaxSegments, c.Mode = 4, core.ModeSFA }); err != nil {
		return 0, err
	}

	// The default configuration, as MatchParallel runs it: the simulated
	// counts (sums over the units, means for ratios) and the time of core.Run.
	cfg := core.DefaultConfig(1)
	r.m["core.plan_s"] = once(func() {
		if _, err := plansFor(cfg); err != nil {
			panic(err) // the same plans were just built
		}
	})
	runS = r.timed("core.run", func() {
		for i, u := range p.units {
			results[i], _ = core.Run(p.n, u, cfg)
		}
	}, check)
	for _, k := range []string{"core.clamped", "core.flows_started", "core.deactivations", "core.convergences", "core.fiv_kills"} {
		r.m[k] = 0 // reported even when nothing is counted
	}
	calls := float64(len(results))
	for _, res := range results {
		if res == nil {
			return 0, fmt.Errorf("%s: core.Run failed", p.name)
		}
		r.m["core.segments"] += float64(res.Plan.Segments) / calls
		r.m["core.cut_range"] += float64(p.n.RangeSize(res.Plan.CutSym)) / calls
		r.m["core.avg_active_flows"] += res.AvgActiveFlows / calls
		r.m["core.switch_overhead_pct"] += res.SwitchOverheadPct / calls
		r.m["core.false_report_ratio"] += res.ReportIncrease / calls
		r.m["core.total_cycles"] += float64(res.TotalCycles)
		if res.Clamped {
			r.m["core.clamped"]++
		}
		for _, seg := range res.Segments {
			r.m["core.flows_started"] += float64(seg.InitFlows)
			r.m["core.deactivations"] += float64(seg.Deactivations)
			r.m["core.convergences"] += float64(seg.Convergences)
			r.m["core.fiv_kills"] += float64(seg.FIVKills)
		}
	}
	return runS, nil
}

// papLayer returns the seconds per pass of Automaton.Match (the ladder's
// top library rung) and the seconds per payload of a direct match.
func (r *layerRun) papLayer(coreRunS float64) (matchS, directS float64) {
	p := r.p
	results := make([][]pap.Match, len(p.units))
	untraced := median(p.phase(r.slot, &r.c, func() (time.Duration, bool) { return p.matchPass(results) }))
	matchS = r.timed("pap.match", func() {
		for i, u := range p.units {
			results[i] = p.a.Match(u)
		}
	}, func() bool {
		ok := true
		for i, ms := range results {
			ok = ok && sameMatches(fromPap(ms), p.refUnits[i])
		}
		return ok
	})
	r.m["bench.trace_overhead_pct"] = 100 * (1 - r.mbps(matchS)/untraced)
	r.m["pap.match_allocs"] = mallocs(func() {
		for i, u := range p.units {
			results[i] = p.a.Match(u)
		}
	}) / float64(len(p.units))
	runS := float64(len(p.corpus)) / 1e6 / r.m["engine.run_mbps.auto"]
	r.m["pap.match_tax"] = 1 - runS/matchS

	var collected []match
	ok := true
	streamS := r.timed("pap.stream", func() { _, ok = p.streamPass(&collected) }, func() bool { return ok })
	r.m["pap.stream_tax"] = 1 - matchS/streamS
	s := p.a.NewStream()
	writeAll := func() {
		for off := 0; off < len(p.corpus); off += p.chunk {
			s.Write(p.corpus[off:min(off+p.chunk, len(p.corpus))])
		}
	}
	writeAll() // warm: buffers grow to their steady size
	s.Reset()
	r.m["pap.stream_write_allocs"] = mallocs(writeAll) / float64((len(p.corpus)+p.chunk-1)/p.chunk)

	reports := make([]*pap.Report, len(p.units))
	parallelS := r.timed("pap.match_parallel", func() { _, ok = p.parallelPass(reports) }, func() bool { return ok })
	r.m["pap.parallel_tax"] = 1 - coreRunS/parallelS
	r.m["core.golden_share"] = runS / parallelS

	return matchS, r.directPayloadS()
}

// directPayloadS returns what one payload costs when matched directly, as
// the handler does it but without papd around it: the median over calls,
// or, where a call is shorter than 100 us and so not worth a clock reading
// of its own, the median over passes of a pass's mean.
func (r *layerRun) directPayloadS() float64 {
	p := r.p
	got := make([][]pap.Match, len(p.payloads))
	var perCall []float64
	perPass := r.timed("pap.match.payloads", func() {
		for i, b := range p.payloads {
			t0 := time.Now()
			got[i], _, _ = p.a.MatchWithInfoContext(context.Background(), b, pap.EngineAuto)
			perCall = append(perCall, time.Since(t0).Seconds())
		}
	}, func() bool {
		ok := true
		for i, ms := range got {
			ok = ok && sameMatches(fromPap(ms), p.refPayloads[i])
		}
		return ok
	}) / float64(len(p.payloads))
	if perPass < 100e-6 {
		return perPass
	}
	return median(perCall)
}

// serverLayer measures papd's ways of serving a match. It returns the
// request ladder in ms: direct match, handler p50, client p50.
func (r *layerRun) serverLayer(directS float64) ([]float64, error) {
	p, nproc, slot := r.p, runtime.NumCPU(), 2*r.slot
	admin := newClient()
	defer closeClient(admin)
	up := func(cfg server.Config, handlerSpan string) (*node, error) {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		n := startNode(ln, cfg, r.tr, handlerSpan)
		if err := p.register(admin, n); err != nil {
			n.stop()
			return nil, err
		}
		return n, nil
	}
	tally := func(l load) load {
		r.c.attempted += l.attempted
		r.c.failed += l.failed
		r.m["server.rejected_429"] += float64(l.rejected)
		return l
	}
	r.m["server.rejected_429"] = 0

	// Registration alone: a replica up, the ruleset posted, 201 back.
	var regErr error
	r.m["server.register_s"] = once(func() {
		ln, err := listen()
		if err != nil {
			regErr = err
			return
		}
		n := startNode(ln, server.Config{}, nil, "")
		defer n.stop()
		if err := p.register(admin, n); err != nil {
			regErr = err
		}
	})
	if regErr != nil {
		return nil, regErr
	}

	// Direct: papd's shipped defaults, the end-to-end path.
	n, err := up(server.Config{}, "server.handler")
	if err != nil {
		return nil, err
	}
	l := tally(p.matchLoad(n, "", nproc, 0, slot, r.tr, "http.request"))
	r.directLatMS = l.latMS
	clientP50, handlerP50 := percentile(l.latMS, 50), median(r.tr.named("server.handler", true))
	r.m["server.handler_p50_ms"] = handlerP50
	r.m["server.transport_p50_ms"] = clientP50 - handlerP50
	r.m["server.handler_tax_p50_ms"] = handlerP50 - 1e3*directS
	r.m["server.p95_ms"] = percentile(l.latMS, 95)
	r.m["server.p99_ms"] = percentile(l.latMS, 99)
	r.m["server.resp_bytes_mean"] = float64(l.respBytes) / float64(l.attempted)

	// Same replica: streaming sessions, mode=parallel, the open-loop point.
	l = tally(p.streamLoad(n, nproc, slot))
	r.m["server.stream_rps"] = l.rps()
	r.m["server.stream_write_p50_ms"] = percentile(l.latMS, 50)
	l = tally(p.matchLoad(n, "?mode=parallel", nproc, 0, slot, r.tr, "http.request.parallel"))
	r.m["server.parallel_p50_ms"] = percentile(l.latMS, 50)
	l = tally(p.matchLoad(n, "", nproc, p.openRate, slot, r.tr, "http.request.open"))
	r.m["server.open_p50_ms"] = percentile(l.latMS, 50)
	r.m["server.open_p95_ms"] = percentile(l.latMS, 95)
	r.m["server.open_late_frac"] = float64(l.late) / float64(l.attempted)
	n.stop()

	// Coalesced: papload's default 2 ms batch window.
	if n, err = up(server.Config{BatchWindow: 2 * time.Millisecond}, "server.handler.coalesced"); err != nil {
		return nil, err
	}
	l = tally(p.matchLoad(n, "", nproc, 0, slot, r.tr, "http.request.coalesced"))
	r.m["server.coalesced_rps"] = l.rps()
	r.m["server.coalesced_p50_ms"] = percentile(l.latMS, 50)
	r.m["server.batch_size_mean"] = 0
	if h := n.srv.Metrics().Histogram("papd_batch_size", "", "", nil); h.Count() > 0 {
		r.m["server.batch_size_mean"] = h.Sum() / float64(h.Count())
	}
	n.stop()

	// Routed: two replicas, requests sent to the one that does not own the
	// ruleset, so every request hops once.
	lnA, err := listen()
	if err != nil {
		return nil, err
	}
	lnB, err := listen()
	if err != nil {
		lnA.Close()
		return nil, err
	}
	a, b := lnA.Addr().String(), lnB.Addr().String()
	nodeA := startNode(lnA, server.Config{AdvertiseAddr: a, Peers: []string{b}}, r.tr, "server.handler.routed")
	defer nodeA.stop()
	nodeB := startNode(lnB, server.Config{AdvertiseAddr: b, Peers: []string{a}}, r.tr, "server.handler.routed")
	defer nodeB.stop()
	if err := p.register(admin, nodeA); err != nil {
		return nil, err
	}
	if err := p.register(admin, nodeB); err != nil {
		return nil, err
	}
	near, far := nodeA, nodeB
	if server.NewRouter(a, []string{b}, 0, 0).OwnerOf(p.name) == a {
		near, far = nodeB, nodeA
	}
	before := far.handled.Load()
	l = tally(p.matchLoad(near, "", nproc, 0, slot, r.tr, "http.request.routed"))
	r.m["server.routed_rps"] = l.rps()
	r.m["server.routed_p50_ms"] = percentile(l.latMS, 50)
	r.m["server.forwarded_frac"] = float64(far.handled.Load()-before) / float64(l.attempted)

	return []float64{1e3 * directS, handlerP50, clientP50}, nil
}

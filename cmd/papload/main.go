// Command papload is a seeded load generator for papd: it drives match
// and streaming-write traffic against one or more replicas (external via
// -targets, or spawned in-process via -replicas, wired as each other's
// peers) and reports latency percentiles, throughput, errors and
// session resets as JSON. With -reloads it hot-reloads the ruleset while
// the load runs, which is how `make load-smoke` proves a re-register is
// zero-downtime; with -bench it sweeps 1..N replica clusters and writes
// a replica-scaling table.
//
// Usage:
//
//	papload [-targets host1:8461,host2:8461 | -replicas 2] [-ruleset load]
//	        [-mode match|stream|mixed] [-duration 5s] [-conns 8] [-rate 0]
//	        [-payload 256] [-seed 1] [-reloads 0] [-out report.json]
//	        [-require-zero-errors] [-require-coalescing]
//	        [-bench] [-bench-max-replicas 4]
//
// The closed-loop default keeps every connection saturated; -rate > 0
// paces the fleet to a total requests/second. Exit status is nonzero
// when a -require-* gate fails, so CI can assert "zero errors, and the
// coalescer actually batched" in one command.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pap/internal/server"
)

type options struct {
	targets     []string // base addresses (host:port), external or spawned
	replicas    int
	ruleset     string
	mode        string
	duration    time.Duration
	conns       int
	rate        float64 // total requests/second across all conns; 0 = closed loop
	payload     int
	seed        int64
	reloads     int
	batchWindow time.Duration // spawned replicas only
	tenantRPS   float64       // spawned replicas only
}

type report struct {
	Mode          string  `json:"mode"`
	Replicas      int     `json:"replicas"`
	Conns         int     `json:"conns"`
	DurationSec   float64 `json:"duration_sec"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	SessionResets int64   `json:"session_resets"`
	Reloads       int64   `json:"reloads"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`

	// Scraped from the replicas' /metrics after the run.
	CoalescedBatches int64 `json:"coalesced_batches"`
	BatchedRequests  int64 `json:"batched_requests"`
	RouterForwarded  int64 `json:"router_forwarded"`
}

func main() {
	var (
		targets   = flag.String("targets", "", "comma-separated papd addresses to load (host:port); empty spawns -replicas in-process")
		replicas  = flag.Int("replicas", 1, "in-process replicas to spawn when -targets is empty")
		ruleset   = flag.String("ruleset", "load", "ruleset name to register and drive")
		mode      = flag.String("mode", "match", "traffic shape: match, stream or mixed")
		duration  = flag.Duration("duration", 5*time.Second, "load duration")
		conns     = flag.Int("conns", 8, "concurrent connections")
		rate      = flag.Float64("rate", 0, "total requests/second across all conns (0 = closed loop)")
		payload   = flag.Int("payload", 256, "payload bytes per request")
		seed      = flag.Int64("seed", 1, "rng seed for payloads and pacing jitter")
		reloads   = flag.Int("reloads", 0, "hot-reload the ruleset this many times during the run")
		out       = flag.String("out", "", "write the JSON report here as well as stdout")
		reqZero   = flag.Bool("require-zero-errors", false, "exit 1 on any error or session reset")
		reqCoal   = flag.Bool("require-coalescing", false, "exit 1 unless at least one multi-request batch was coalesced")
		bench     = flag.Bool("bench", false, "sweep 1..bench-max-replicas spawned clusters and write a scaling table")
		benchMax  = flag.Int("bench-max-replicas", 4, "largest cluster in the -bench sweep")
		batchWin  = flag.Duration("batch-window", 2*time.Millisecond, "BatchWindow for spawned replicas (0 disables coalescing)")
		tenantRPS = flag.Float64("tenant-rps", 0, "TenantRPS for spawned replicas (0 disables quotas)")
	)
	flag.Parse()

	opts := options{
		replicas: *replicas, ruleset: *ruleset, mode: *mode,
		duration: *duration, conns: *conns, rate: *rate,
		payload: *payload, seed: *seed, reloads: *reloads,
		batchWindow: *batchWin, tenantRPS: *tenantRPS,
	}
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			opts.targets = append(opts.targets, t)
		}
	}

	if *bench {
		if err := runBench(opts, *benchMax, *out); err != nil {
			log.Fatalf("papload: %v", err)
		}
		return
	}

	rep, err := runOnce(opts)
	if err != nil {
		log.Fatalf("papload: %v", err)
	}
	emit(rep, *out)
	if *reqZero && (rep.Errors > 0 || rep.SessionResets > 0) {
		log.Fatalf("papload: --require-zero-errors: %d errors, %d session resets",
			rep.Errors, rep.SessionResets)
	}
	if *reqCoal && (rep.CoalescedBatches == 0 || rep.BatchedRequests <= rep.CoalescedBatches) {
		log.Fatalf("papload: --require-coalescing: %d batches for %d batched requests",
			rep.CoalescedBatches, rep.BatchedRequests)
	}
}

func emit(v any, out string) {
	data, _ := json.MarshalIndent(v, "", "  ")
	data = append(data, '\n')
	os.Stdout.Write(data)
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			log.Fatalf("papload: writing %s: %v", out, err)
		}
	}
}

// runBench sweeps spawned cluster sizes 1..max and collects one report
// per size — the replica-scaling table.
func runBench(opts options, max int, out string) error {
	if len(opts.targets) > 0 {
		return fmt.Errorf("-bench spawns its own clusters; drop -targets")
	}
	var table struct {
		Benchmark string   `json:"benchmark"`
		Note      string   `json:"note"`
		Mode      string   `json:"mode"`
		Conns     int      `json:"conns"`
		Payload   int      `json:"payload_bytes"`
		Runs      []report `json:"runs"`
	}
	table.Benchmark = "papd replica scaling"
	table.Note = "spawned replicas share one host's cores, so these runs price the " +
		"shard-routing hop and coalescing window rather than demonstrating " +
		"horizontal scaling; run with -targets against real hosts for that"
	table.Mode = opts.mode
	table.Conns = opts.conns
	table.Payload = opts.payload
	for n := 1; n <= max; n++ {
		o := opts
		o.replicas = n
		rep, err := runOnce(o)
		if err != nil {
			return fmt.Errorf("replicas=%d: %w", n, err)
		}
		log.Printf("replicas=%d: %.0f req/s, p50 %.2fms p99 %.2fms, %d errors",
			n, rep.ThroughputRPS, rep.P50Ms, rep.P99Ms, rep.Errors)
		table.Runs = append(table.Runs, rep)
	}
	emit(table, out)
	return nil
}

// runOnce executes one load run against external targets or a freshly
// spawned in-process cluster.
func runOnce(opts options) (report, error) {
	targets := opts.targets
	if len(targets) == 0 {
		spawned, shutdown, err := spawnCluster(opts)
		if err != nil {
			return report{}, err
		}
		defer shutdown()
		targets = spawned
	}

	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * opts.conns,
			MaxIdleConnsPerHost: 2 * opts.conns,
		},
	}

	if err := register(client, targets, opts.ruleset, 1); err != nil {
		return report{}, err
	}

	var (
		requests, errors, resets, reloadsDone atomic.Int64
		mu                                    sync.Mutex
		lats                                  []float64 // milliseconds
	)
	record := func(d time.Duration) {
		mu.Lock()
		lats = append(lats, float64(d)/float64(time.Millisecond))
		mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.duration)
	defer cancel()

	// Hot reloads spread across the run: each re-register bumps the
	// ruleset version on every replica while the load keeps flowing.
	var reloadWG sync.WaitGroup
	if opts.reloads > 0 {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			interval := opts.duration / time.Duration(opts.reloads+1)
			for i := 0; i < opts.reloads; i++ {
				select {
				case <-ctx.Done():
					return
				case <-time.After(interval):
				}
				if err := register(client, targets, opts.ruleset, i+2); err != nil {
					log.Printf("papload: reload %d: %v", i+1, err)
					errors.Add(1)
					continue
				}
				reloadsDone.Add(1)
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.conns; c++ {
		streaming := opts.mode == "stream" || (opts.mode == "mixed" && c%2 == 0)
		wg.Add(1)
		go func(c int, streaming bool) {
			defer wg.Done()
			w := &worker{
				client: client, targets: targets, ruleset: opts.ruleset,
				rng:     rand.New(rand.NewSource(opts.seed + int64(c))),
				payload: opts.payload,
			}
			var pace <-chan time.Time
			if opts.rate > 0 {
				t := time.NewTicker(time.Duration(float64(opts.conns) / opts.rate * float64(time.Second)))
				defer t.Stop()
				pace = t.C
			}
			for ctx.Err() == nil {
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				}
				var d time.Duration
				var err error
				var reset bool
				if streaming {
					d, reset, err = w.streamWrite(ctx)
				} else {
					d, err = w.match(ctx)
				}
				if ctx.Err() != nil {
					return // don't count requests the deadline cut off
				}
				requests.Add(1)
				if reset {
					resets.Add(1)
				}
				if err != nil {
					errors.Add(1)
				} else {
					record(d)
				}
			}
		}(c, streaming)
	}
	wg.Wait()
	reloadWG.Wait()
	elapsed := time.Since(start)

	rep := report{
		Mode: opts.mode, Replicas: len(targets), Conns: opts.conns,
		DurationSec:   elapsed.Seconds(),
		Requests:      requests.Load(),
		Errors:        errors.Load(),
		SessionResets: resets.Load(),
		Reloads:       reloadsDone.Load(),
		ThroughputRPS: float64(requests.Load()) / elapsed.Seconds(),
	}
	sort.Float64s(lats)
	rep.P50Ms, rep.P95Ms, rep.P99Ms = pct(lats, 50), pct(lats, 95), pct(lats, 99)
	rep.CoalescedBatches, rep.BatchedRequests, rep.RouterForwarded = scrapeMetrics(client, targets)
	return rep, nil
}

// spawnCluster boots n in-process papd replicas wired as each other's
// peers and returns their addresses and a shutdown func.
func spawnCluster(opts options) ([]string, func(), error) {
	n := opts.replicas
	if n < 1 {
		n = 1
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	servers := make([]*server.Server, n)
	for i := range servers {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s := server.New(server.Config{
			Addr:          addrs[i],
			AdvertiseAddr: addrs[i],
			Peers:         peers,
			BatchWindow:   opts.batchWindow,
			TenantRPS:     opts.tenantRPS,
		})
		servers[i] = s
		go s.Serve(lns[i])
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Shutdown(ctx)
		}
	}
	return addrs, shutdown, nil
}

// register installs (or hot-reloads) the ruleset on every target.
// Patterns vary by version so a reload genuinely recompiles, while every
// version still matches the planted needle.
func register(client *http.Client, targets []string, name string, version int) error {
	body := fmt.Sprintf(`{"name": %q, "patterns": ["needle", "v%d[0-9]+marker"]}`,
		name, version)
	for _, t := range targets {
		resp, err := client.Post("http://"+t+"/v1/automata", "application/json",
			strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("register on %s: %w", t, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 201 && resp.StatusCode != 200 {
			return fmt.Errorf("register on %s: HTTP %d", t, resp.StatusCode)
		}
	}
	return nil
}

type worker struct {
	client  *http.Client
	targets []string
	ruleset string
	rng     *rand.Rand
	payload int
	next    int

	// Streaming state: one live session, reopened on loss.
	sessionID string
	sessionAt string // the target the session was opened through
	offset    int64
}

func (w *worker) target() string {
	t := w.targets[w.next%len(w.targets)]
	w.next++
	return t
}

// body builds a seeded payload with a needle planted mid-way.
func (w *worker) body() []byte {
	const alpha = "abcdefghijklmnopqrstuvwxyz 0123456789"
	b := make([]byte, w.payload)
	for i := range b {
		b[i] = alpha[w.rng.Intn(len(alpha))]
	}
	if len(b) >= 8 {
		copy(b[w.rng.Intn(len(b)-7):], "needle")
	}
	return b
}

func (w *worker) match(ctx context.Context) (time.Duration, error) {
	url := "http://" + w.target() + "/v1/automata/" + w.ruleset + "/match"
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(w.body()))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 200 {
		return 0, fmt.Errorf("match: HTTP %d", resp.StatusCode)
	}
	return time.Since(start), nil
}

// streamWrite writes one chunk to the worker's session (opening one on
// demand) and verifies the stream offset advanced by exactly the chunk:
// any other answer is a session reset — the failure mode the hot-reload
// smoke exists to catch.
func (w *worker) streamWrite(ctx context.Context) (d time.Duration, reset bool, err error) {
	if w.sessionID == "" {
		if err := w.openSession(ctx); err != nil {
			return 0, false, err
		}
	}
	chunk := w.body()
	url := "http://" + w.sessionAt + "/v1/streams/" + w.sessionID + "/write"
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(chunk))
	if err != nil {
		return 0, false, err
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		w.sessionID = ""
		return 0, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == 404 {
		// The session vanished: reopen next round and call it a reset.
		io.Copy(io.Discard, resp.Body)
		w.sessionID = ""
		return 0, true, fmt.Errorf("stream write: session lost")
	}
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return 0, false, fmt.Errorf("stream write: HTTP %d", resp.StatusCode)
	}
	var wr struct {
		Offset int64 `json:"offset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return 0, false, err
	}
	want := w.offset + int64(len(chunk))
	if wr.Offset != want {
		w.sessionID = ""
		return 0, true, fmt.Errorf("stream offset %d, want %d: session state lost", wr.Offset, want)
	}
	w.offset = want
	return time.Since(start), false, nil
}

func (w *worker) openSession(ctx context.Context) error {
	t := w.target()
	body := fmt.Sprintf(`{"automaton": %q}`, w.ruleset)
	req, err := http.NewRequestWithContext(ctx, "POST", "http://"+t+"/v1/streams",
		strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("open stream: HTTP %d", resp.StatusCode)
	}
	var si struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&si); err != nil {
		return err
	}
	w.sessionID, w.sessionAt, w.offset = si.ID, t, 0
	return nil
}

// pct returns the q-th percentile of sorted (ascending) latencies.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// scrapeMetrics sums the coalescing and routing counters across every
// target's /metrics.
func scrapeMetrics(client *http.Client, targets []string) (batches, batched, forwarded int64) {
	for _, t := range targets {
		resp, err := client.Get("http://" + t + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "papd_batches_total "):
				batches += parseMetricValue(line)
			case strings.HasPrefix(line, "papd_batched_requests_total "):
				batched += parseMetricValue(line)
			case strings.HasPrefix(line, "papd_router_forwarded_total"):
				forwarded += parseMetricValue(line)
			}
		}
		resp.Body.Close()
	}
	return batches, batched, forwarded
}

func parseMetricValue(line string) int64 {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0
	}
	f, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return 0
	}
	return int64(f)
}

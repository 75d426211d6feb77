package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body []byte, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, data
}

// testInput builds a payload with plantings of the given needles, like the
// root package's test generator.
func testInput(size int, seed int64, inject ...string) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, size)
	const alpha = "abcdefghijklmnopqrstuvwxyz 0123456789"
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	for _, s := range inject {
		for k := 0; k < 1+size/2048; k++ {
			p := rng.Intn(size - len(s))
			copy(b[p:], s)
		}
	}
	return b
}

// TestServerEndToEnd drives the full API surface the way a client would:
// register a ruleset, match a payload sequentially and in parallel, run a
// chunked streaming session, and check the metrics output mentions all of
// it. This is the integration test the issue's acceptance criteria name.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Probes.
	if code, body := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); code != 200 || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz = %d %q", code, body)
	}

	// Register.
	reg, _ := json.Marshal(registerRequest{
		Name:     "ids",
		Patterns: []string{"attack", "GET /admin", `[0-9][0-9]:[0-9][0-9]`},
	})
	var auto automatonJSON
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, &auto); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}
	if auto.Name != "ids" || auto.States == 0 {
		t.Fatalf("registered automaton = %+v", auto)
	}

	// Re-registering an existing name is a hot reload: 200, version 2.
	var reloaded automatonJSON
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, &reloaded); code != 200 {
		t.Fatalf("reload register = %d %q, want 200", code, body)
	}
	if auto.Version != 1 || reloaded.Version != 2 {
		t.Fatalf("versions = %d then %d, want 1 then 2", auto.Version, reloaded.Version)
	}

	// List.
	var list struct {
		Automata []automatonJSON `json:"automata"`
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/automata", nil, &list); code != 200 || len(list.Automata) != 1 {
		t.Fatalf("list = %d %+v", code, list)
	}

	payload := testInput(1<<15, 42, "attack", "GET /admin", "13:37")

	// Sequential match.
	var seq matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/ids/match", payload, &seq); code != 200 {
		t.Fatalf("sequential match = %d %q", code, body)
	}
	if seq.Mode != "sequential" || len(seq.Matches) == 0 {
		t.Fatalf("sequential response = %+v", seq)
	}

	// Parallel match must agree exactly and report modelled AP stats.
	var par matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/ids/match?mode=parallel&ranks=2&segments=8", payload, &par); code != 200 {
		t.Fatalf("parallel match = %d %q", code, body)
	}
	if par.AP == nil || !par.AP.Verified || par.AP.Segments < 2 || par.AP.Speedup <= 0 {
		t.Fatalf("parallel AP stats = %+v", par.AP)
	}
	if len(par.Matches) != len(seq.Matches) {
		t.Fatalf("parallel found %d matches, sequential %d", len(par.Matches), len(seq.Matches))
	}
	for i := range seq.Matches {
		if par.Matches[i] != seq.Matches[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, par.Matches[i], seq.Matches[i])
		}
	}

	// SFA-mode match: same matches again, SFA stats in the AP block.
	var sfa matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/ids/match?mode=sfa&ranks=2&segments=8", payload, &sfa); code != 200 {
		t.Fatalf("sfa match = %d %q", code, body)
	}
	if sfa.AP == nil || !sfa.AP.Verified || sfa.AP.ExecMode != "sfa" {
		t.Fatalf("sfa AP stats = %+v", sfa.AP)
	}
	if len(sfa.Matches) != len(seq.Matches) {
		t.Fatalf("sfa found %d matches, sequential %d", len(sfa.Matches), len(seq.Matches))
	}
	if par.AP.ExecMode != "flows" {
		t.Fatalf("parallel default exec mode = %q, want flows", par.AP.ExecMode)
	}

	// Bad parallel params.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata/ids/match?mode=parallel&ranks=9", payload, nil); code != 400 {
		t.Fatalf("ranks=9 = %d, want 400", code)
	}
	// Unknown automaton.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata/nope/match", payload, nil); code != 404 {
		t.Fatalf("unknown automaton = %d, want 404", code)
	}

	// Streaming session: chunked writes, global offsets, same match set.
	open, _ := json.Marshal(openStreamRequest{Automaton: "ids"})
	var sess SessionInfo
	if code, body := doJSON(t, "POST", ts.URL+"/v1/streams", open, &sess); code != 201 {
		t.Fatalf("open stream = %d %q", code, body)
	}
	var streamed []matchJSON
	rng := rand.New(rand.NewSource(7))
	for pos := 0; pos < len(payload); {
		n := 1 + rng.Intn(4096)
		if pos+n > len(payload) {
			n = len(payload) - pos
		}
		var wr streamWriteResponse
		code, body := doJSON(t, "POST", ts.URL+"/v1/streams/"+sess.ID+"/write", payload[pos:pos+n], &wr)
		if code != 200 {
			t.Fatalf("stream write = %d %q", code, body)
		}
		pos += n
		if wr.Offset != int64(pos) {
			t.Fatalf("stream offset = %d, want %d", wr.Offset, pos)
		}
		streamed = append(streamed, wr.Matches...)
	}
	if len(streamed) != len(seq.Matches) {
		t.Fatalf("streamed %d matches, sequential %d", len(streamed), len(seq.Matches))
	}
	for i := range seq.Matches {
		if streamed[i] != seq.Matches[i] {
			t.Fatalf("streamed match %d differs: %+v vs %+v", i, streamed[i], seq.Matches[i])
		}
	}

	// Session info and close.
	var info SessionInfo
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/"+sess.ID, nil, &info); code != 200 || info.Offset != int64(len(payload)) {
		t.Fatalf("stream info = %d %+v", code, info)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/streams/"+sess.ID, nil, nil); code != 204 {
		t.Fatalf("close stream = %d, want 204", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/"+sess.ID, nil, nil); code != 404 {
		t.Fatalf("closed stream get = %d, want 404", code)
	}

	// Metrics: request counters, latency histogram, pool gauges, speedup.
	code, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`papd_http_requests_total{handler="match",code="200"}`,
		`papd_http_request_seconds_bucket{handler="match",le="+Inf"}`,
		"papd_worker_pool_workers",
		"papd_worker_pool_queue_depth",
		"papd_worker_pool_active",
		"papd_streams_active 0",
		"papd_automata_registered 1",
		`papd_automaton_matches_total{automaton="ids"}`,
		"papd_parallel_speedup_count 2",
		"papd_stream_bytes_total 32768",
		"papd_segment_parallelism 1",
		"papd_sfa_mappings_total",
		"papd_sfa_compositions_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics output:\n%s", metrics)
	}

	// Delete the automaton.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/automata/ids", nil, nil); code != 204 {
		t.Fatalf("delete automaton = %d, want 204", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/automata/ids", nil, nil); code != 404 {
		t.Fatalf("deleted automaton get = %d, want 404", code)
	}
}

// TestServerConcurrentMatches hammers one automaton from many clients —
// the compile-once share-everywhere model under real HTTP concurrency.
func TestServerConcurrentMatches(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	reg, _ := json.Marshal(registerRequest{Name: "w", Patterns: []string{"needle", "ha[ys]+tack"}})
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}
	payload := testInput(1<<13, 3, "needle", "haystack")
	var ref matchResponse
	doJSON(t, "POST", ts.URL+"/v1/automata/w/match", payload, &ref)

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mode := "?mode=parallel&segments=4"
			if g%2 == 0 {
				mode = ""
			}
			for i := 0; i < 3; i++ {
				var resp matchResponse
				code, body := doJSON(t, "POST", ts.URL+"/v1/automata/w/match"+mode, payload, &resp)
				if code == http.StatusTooManyRequests {
					continue // backpressure is a legal answer
				}
				if code != 200 {
					t.Errorf("match = %d %q", code, body)
					return
				}
				if len(resp.Matches) != len(ref.Matches) {
					t.Errorf("got %d matches, want %d", len(resp.Matches), len(ref.Matches))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerBackpressure forces the tiny pool to reject with 429.
func TestServerBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MatchTimeout: 5 * time.Second})
	reg, _ := json.Marshal(registerRequest{Name: "b", Patterns: []string{"x"}})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatal("register failed")
	}

	// Occupy the single worker.
	block := make(chan struct{})
	running := make(chan struct{})
	go s.pool.Do(context.Background(), func() { close(running); <-block }) //nolint:errcheck
	<-running
	// Fill the single queue slot.
	go s.pool.Do(context.Background(), func() {}) //nolint:errcheck
	deadline := time.After(2 * time.Second)
	for s.pool.QueueDepth() == 0 {
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	code, body := doJSON(t, "POST", ts.URL+"/v1/automata/b/match", []byte("xxx"), nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("match under full queue = %d %q, want 429", code, body)
	}
	close(block)

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if !strings.Contains(string(metrics), "papd_worker_pool_rejected_total 1") {
		t.Errorf("rejected counter missing:\n%s", metrics)
	}
}

// TestServerGracefulShutdown verifies readiness flips and the pool drains.
func TestServerGracefulShutdown(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", resp.StatusCode)
	}
	if err := s.pool.Do(context.Background(), func() {}); err != ErrPoolClosed {
		t.Fatalf("pool after shutdown: %v, want ErrPoolClosed", err)
	}
}

// TestServerPayloadTooLarge checks the body limit translates to 413.
func TestServerPayloadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	reg, _ := json.Marshal(registerRequest{Name: "s", Patterns: []string{"x"}})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatal("register failed")
	}
	code, _ := doJSON(t, "POST", ts.URL+"/v1/automata/s/match", bytes.Repeat([]byte("y"), 128), nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized match = %d, want 413", code)
	}
}

// TestRegisterValidation exercises the error paths of registration.
func TestRegisterValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		req  registerRequest
		want int
	}{
		{registerRequest{Name: "bad name!", Patterns: []string{"x"}}, 400},
		{registerRequest{Name: "ok", Patterns: nil}, 400},
		{registerRequest{Name: "ok", Kind: "quantum", Patterns: []string{"x"}}, 400},
		{registerRequest{Name: "ok", Patterns: []string{"("}}, 400},
		{registerRequest{Name: "ham", Kind: "hamming", Patterns: []string{"abcdef"}, Distance: 1}, 201},
		{registerRequest{Name: "lev", Kind: "levenshtein", Patterns: []string{"abcdef"}, Distance: 1}, 201},
	}
	for _, c := range cases {
		body, _ := json.Marshal(c.req)
		code, resp := doJSON(t, "POST", ts.URL+"/v1/automata", body, nil)
		if code != c.want {
			t.Errorf("register %+v = %d %q, want %d", c.req, code, resp, c.want)
		}
	}
	// The fuzzy automata actually serve.
	var m matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/ham/match", []byte("zzabcXefzz"), &m); code != 200 || len(m.Matches) == 0 {
		t.Fatalf("hamming match = %d %q %+v", code, body, m)
	}
}

// TestServerEngineSelection covers the engine plumbing: ruleset defaults
// set at registration, per-request overrides on match and stream open,
// rejection of unknown engine names, and the per-engine metrics.
func TestServerEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Register with a sparse default; bad engine names are rejected.
	reg, _ := json.Marshal(registerRequest{Name: "e", Patterns: []string{"attack"}, Engine: "sparse"})
	var auto automatonJSON
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, &auto); code != 201 || auto.Engine != "sparse" {
		t.Fatalf("register = %d %q engine=%q", code, body, auto.Engine)
	}
	bad, _ := json.Marshal(registerRequest{Name: "b", Patterns: []string{"x"}, Engine: "quantum"})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata", bad, nil); code != 400 {
		t.Fatalf("bad engine register = %d, want 400", code)
	}

	// Every backend returns the same matches; the response echoes the
	// engine, defaulting to the ruleset's.
	payload := testInput(4096, 3, "attack")
	var want matchResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata/e/match", payload, &want); code != 200 || want.Engine != "sparse" {
		t.Fatalf("default match engine = %q", want.Engine)
	}
	for _, eng := range []string{"auto", "bit"} {
		var m matchResponse
		if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/e/match?engine="+eng, payload, &m); code != 200 {
			t.Fatalf("%s match = %d %q", eng, code, body)
		}
		if m.Engine != eng || len(m.Matches) != len(want.Matches) {
			t.Fatalf("%s: engine=%q matches=%d, want %d", eng, m.Engine, len(m.Matches), len(want.Matches))
		}
	}
	var par matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/e/match?mode=parallel&engine=bit", payload, &par); code != 200 || par.AP == nil {
		t.Fatalf("parallel bit match = %d %q", code, body)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata/e/match?engine=quantum", payload, nil); code != 400 {
		t.Fatal("unknown engine accepted on match")
	}

	// Streams: ruleset default, request override, bad name rejected.
	open, _ := json.Marshal(openStreamRequest{Automaton: "e"})
	var sess SessionInfo
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams", open, &sess); code != 201 || sess.Engine != "sparse" {
		t.Fatalf("stream default engine = %q", sess.Engine)
	}
	open, _ = json.Marshal(openStreamRequest{Automaton: "e", Engine: "bit"})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams", open, &sess); code != 201 || sess.Engine != "bit" {
		t.Fatalf("stream override engine = %q", sess.Engine)
	}
	var wr streamWriteResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/"+sess.ID+"/write", payload, &wr); code != 200 {
		t.Fatal("stream write failed")
	}
	open, _ = json.Marshal(openStreamRequest{Automaton: "e", Engine: "quantum"})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams", open, nil); code != 400 {
		t.Fatal("unknown engine accepted on stream open")
	}

	// Metrics report per-engine step counts.
	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	for _, want := range []string{
		`papd_engine_steps_total{engine="sparse"}`,
		`papd_engine_steps_total{engine="bit"}`,
		"papd_engine_switches_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSequentialMatchCountsEngineSwitches: papd_engine_switches_total must
// move on the default path — a sequential /match on the auto engine — when
// the run changes representation, not only on parallel matches and stream
// writes.
func TestSequentialMatchCountsEngineSwitches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Wide with one all-input state, so auto is the adaptive engine starting
	// on the list (a narrow ruleset is the bit engine outright and never
	// switches): the anchored rule only pads the automaton to ~4000 states
	// (63 vector words), and every "a" of the payload parks one more [^!]*
	// state on the frontier, which passes the dense threshold at 21.
	reg, _ := json.Marshal(registerRequest{Name: "wide", Patterns: []string{
		strings.Repeat("a[^!]*", 32) + "z",
		"^" + strings.Repeat("x{250}", 16),
	}})
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}
	before := metricValue(t, ts.URL, "papd_engine_switches_total")
	payload := append(bytes.Repeat([]byte("a"), 40), bytes.Repeat([]byte("q"), 256)...)
	var m matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/wide/match", payload, &m); code != 200 || m.Engine != "auto" {
		t.Fatalf("match = %d %q engine=%q", code, body, m.Engine)
	}
	if after := metricValue(t, ts.URL, "papd_engine_switches_total"); after <= before {
		t.Fatalf("papd_engine_switches_total = %v after a sequential match that went dense, %v before", after, before)
	}
}

// TestSerialSegmentsScheduler covers the cross-segment scheduler plumbing:
// a server configured with SerialSegments defaults parallel-mode matches to
// the serial scheduler (gauge at 0), a request can override it per call,
// and both schedulers return identical matches and modelled AP stats.
func TestSerialSegmentsScheduler(t *testing.T) {
	_, ts := newTestServer(t, Config{SerialSegments: true})

	reg, _ := json.Marshal(registerRequest{Name: "r", Patterns: []string{"attack", "needle"}})
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}
	payload := testInput(1<<15, 7, "attack", "needle")

	var serial, parallel matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/r/match?mode=parallel&segments=8", payload, &serial); code != 200 {
		t.Fatalf("serial-default match = %d %q", code, body)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/r/match?mode=parallel&segments=8&serial_segments=false", payload, &parallel); code != 200 {
		t.Fatalf("parallel-override match = %d %q", code, body)
	}
	if serial.AP == nil || parallel.AP == nil {
		t.Fatalf("missing AP stats: %+v vs %+v", serial.AP, parallel.AP)
	}
	if !serial.AP.Verified || !parallel.AP.Verified {
		t.Fatalf("unverified results: %+v vs %+v", serial.AP, parallel.AP)
	}
	if len(serial.Matches) != len(parallel.Matches) {
		t.Fatalf("match counts differ: %d vs %d", len(serial.Matches), len(parallel.Matches))
	}
	for i := range serial.Matches {
		if serial.Matches[i] != parallel.Matches[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, serial.Matches[i], parallel.Matches[i])
		}
	}
	// Modelled stats are scheduler-independent (engine_switches excepted,
	// which is worker-scheduling-dependent by design).
	if serial.AP.Segments != parallel.AP.Segments ||
		serial.AP.Speedup != parallel.AP.Speedup ||
		serial.AP.BaselineNS != parallel.AP.BaselineNS ||
		serial.AP.ParallelNS != parallel.AP.ParallelNS ||
		serial.AP.AvgActiveFlows != parallel.AP.AvgActiveFlows ||
		serial.AP.SwitchOverheadPct != parallel.AP.SwitchOverheadPct ||
		serial.AP.FalseReportRatio != parallel.AP.FalseReportRatio {
		t.Fatalf("modelled stats differ:\nserial:   %+v\nparallel: %+v", serial.AP, parallel.AP)
	}

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata/r/match?mode=parallel&serial_segments=zzz", payload, nil); code != 400 {
		t.Fatalf("bad serial_segments = %d, want 400", code)
	}

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if !strings.Contains(string(metrics), "papd_segment_parallelism 0") {
		t.Errorf("metrics missing papd_segment_parallelism 0:\n%s", metrics)
	}
}

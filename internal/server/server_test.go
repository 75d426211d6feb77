package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

	// mode takes sequential or parallel; the SFA strategy is not on the
	// wire, and the error names the two modes.
	var bad struct {
		Error string `json:"error"`
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/automata/ids/match?mode=sfa&ranks=2&segments=8", payload, nil)
	_ = json.Unmarshal(body, &bad)
	if code != 400 || !strings.Contains(bad.Error, `"sequential"`) || !strings.Contains(bad.Error, `"parallel"`) {
		t.Fatalf("mode=sfa = %d %q, want 400 naming sequential and parallel", code, body)
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
		"papd_parallel_speedup_count 1",
		"papd_stream_bytes_total 32768",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(metrics), "papd_sfa") {
		t.Error("metrics still carry an SFA family")
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

// TestServerBackpressure forces the tiny limiter to time a waiter out and
// to reject with 429.
func TestServerBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MatchTimeout: 5 * time.Second})
	reg, _ := json.Marshal(registerRequest{Name: "b", Patterns: []string{"x"}})
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatal("register failed")
	}

	// Occupy the single slot: a request whose deadline ends while it waits
	// for it is answered like any cancelled match, and counted abandoned.
	release := occupy(t, s.limiter, 1)
	var ab abortResponse
	code, body := doJSON(t, "POST", ts.URL+"/v1/automata/b/match?timeout_ms=20", []byte("xxx"), nil)
	if code != http.StatusServiceUnavailable || json.Unmarshal(body, &ab) != nil || ab.Reason != "deadline" {
		t.Fatalf("match that waited past its deadline = %d %q, want 503 with reason deadline", code, body)
	}
	if got := s.limiter.Abandoned(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}

	// Now fill the single place in the queue as well.
	go s.limiter.Do(context.Background(), func() {}) //nolint:errcheck
	waitFor(t, "queue depth", s.limiter.QueueDepth, 1)

	code, body = doJSON(t, "POST", ts.URL+"/v1/automata/b/match", []byte("xxx"), nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("match under full queue = %d %q, want 429", code, body)
	}
	release()

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if !strings.Contains(string(metrics), "papd_worker_pool_rejected_total 1") {
		t.Errorf("rejected counter missing:\n%s", metrics)
	}
}

// TestServerGracefulShutdown verifies the drain: readiness flips, a match
// in flight when Shutdown is called still completes with 200, and one that
// arrives afterwards is turned away with 503.
func TestServerGracefulShutdown(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reg, _ := json.Marshal(registerRequest{Name: "g", Patterns: []string{"x"}})
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}

	// Hold every slot but one, so the match below is admitted and then
	// waits — in flight — on a session lock this test holds.
	open, _ := json.Marshal(openStreamRequest{Automaton: "g"})
	var si SessionInfo
	if code, body := doJSON(t, "POST", ts.URL+"/v1/streams", open, &si); code != 201 {
		t.Fatalf("open stream = %d %q", code, body)
	}
	sess, err := s.sessions.Get(si.ID)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	inFlight := make(chan int, 1)
	go func() {
		code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/"+si.ID+"/write", []byte("xx"), nil)
		inFlight <- code
	}()
	waitFor(t, "active", s.limiter.Active, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", code)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/g/match", []byte("x"), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("match arriving after shutdown = %d %q, want 503", code, body)
	}
	sess.mu.Unlock()
	if code := <-inFlight; code != 200 {
		t.Fatalf("stream write in flight across shutdown = %d, want 200", code)
	}
}

// TestServerSurvivesPanickingMatch: a panic in the matching code costs the
// one request a 500 and nothing else — the slot comes back and the next
// request is served. With the worker pool this replaced, the match ran on a
// pool goroutine with no recover and the panic took the process down (here,
// the test binary) with every tenant's sessions.
func TestServerSurvivesPanickingMatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	quietLog(t)
	reg, _ := json.Marshal(registerRequest{Name: "p", Patterns: []string{"x"}})
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}
	// A session with no stream: its write dereferences nil inside the
	// function the limiter runs, as an engine bug would.
	e, _ := s.reg.Get("p")
	s.sessions.sessions["broken"] = &Session{ID: "broken", Entry: e}

	code, body := doJSON(t, "POST", ts.URL+"/v1/streams/broken/write", []byte("x"), nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking write = %d %q, want 500", code, body)
	}
	if strings.Contains(string(body), "goroutine") {
		t.Errorf("500 body leaks the stack: %s", body)
	}
	if got := s.limiter.Active(); got != 0 {
		t.Fatalf("active = %d after the panic, want 0: the slot leaked", got)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/p/match", []byte("x"), nil); code != 200 {
		t.Fatalf("match after the panic = %d %q, want 200", code, body)
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

// scrub zeroes the fields of a decoded JSON response that legitimately
// differ between two identical requests: timings, ids and timestamps.
func scrub(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			switch k {
			case "elapsed_ms", "id", "created", "last_used":
				v[k] = nil
			default:
				v[k] = scrub(x)
			}
		}
	case []any:
		for i := range v {
			v[i] = scrub(v[i])
		}
	}
	return v
}

// scrubbed returns body re-encoded with scrub applied, and fails the test if
// the response carries an "engine" key at any depth.
func scrubbed(t *testing.T, what string, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: decoding %q: %v", what, body, err)
	}
	out, _ := json.Marshal(scrub(v))
	if strings.Contains(string(out), `"engine"`) {
		t.Errorf("%s: response still names an engine: %s", what, body)
	}
	return string(out)
}

// TestWireSelectsNothing pins the rule docs/SERVER.md states: nothing on
// the wire selects how an answer is computed. A request that still sends
// the removed engine= / serial_segments= / speculate= parameters (query
// and body spellings, valid and invalid values alike) gets, timings and ids aside,
// byte for byte the response of one that does not; no response names an
// engine; and the metrics carry one engine-steps series and none of the
// per-kind ones.
func TestWireSelectsNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const removed = "engine=sparse&serial_segments=true&speculate=true"

	register := func(name string, extra map[string]any) string {
		req := map[string]any{"name": name, "patterns": []string{"attack", "ne+dle"}}
		for k, v := range extra {
			req[k] = v
		}
		body, _ := json.Marshal(req)
		code, resp := doJSON(t, "POST", ts.URL+"/v1/automata?"+removed, body, nil)
		if code != 201 {
			t.Fatalf("register %s = %d %q", name, code, resp)
		}
		// Names differ by construction; everything else must not.
		return strings.ReplaceAll(scrubbed(t, "register "+name, resp), name, "NAME")
	}
	if plain, with := register("w1", nil), register("w2", map[string]any{"engine": "quantum", "serial_segments": true}); plain != with {
		t.Errorf("register body with removed fields differs:\n%s\n%s", plain, with)
	}

	payload := testInput(1<<14, 5, "attack", "needle")
	for _, q := range []string{"", "mode=parallel&segments=4", "mode=parallel&ranks=2&segments=8"} {
		var got [2]string
		for i, query := range []string{q, q + "&" + removed} {
			code, body := doJSON(t, "POST", ts.URL+"/v1/automata/w1/match?"+query, payload, nil)
			if code != 200 {
				t.Fatalf("match ?%s = %d %q", query, code, body)
			}
			got[i] = scrubbed(t, "match ?"+query, body)
		}
		if got[0] != got[1] {
			t.Errorf("match ?%s differs with the removed parameters:\n%s\n%s", q, got[0], got[1])
		}
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/w1/match?mode=parallel&engine=quantum&serial_segments=zzz&speculate=zzz", payload, nil); code != 200 {
		t.Errorf("match with unparseable removed parameters = %d %q, want 200: they are ignored, not validated", code, body)
	}

	var got [2]string
	for i, open := range []string{`{"automaton":"w1"}`, `{"automaton":"w1","engine":"sparse","serial_segments":true}`} {
		var si SessionInfo
		code, body := doJSON(t, "POST", ts.URL+"/v1/streams?"+removed, []byte(open), &si)
		if code != 201 {
			t.Fatalf("open %s = %d %q", open, code, body)
		}
		got[i] = scrubbed(t, "open "+open, body)
		code, body = doJSON(t, "POST", ts.URL+"/v1/streams/"+si.ID+"/write?"+removed, payload, nil)
		if code != 200 {
			t.Fatalf("write = %d %q", code, body)
		}
		got[i] += scrubbed(t, "write", body)
		_, body = doJSON(t, "GET", ts.URL+"/v1/streams/"+si.ID, nil, nil)
		got[i] += scrubbed(t, "stream info", body)
	}
	if got[0] != got[1] {
		t.Errorf("stream open+write+info differs with the removed fields:\n%s\n%s", got[0], got[1])
	}

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	var steps []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "papd_engine_steps_total") {
			steps = append(steps, line)
		}
		if strings.Contains(line, "papd_lazydfa_") || strings.Contains(line, "papd_segment_parallelism") {
			t.Errorf("metrics still carry %q", line)
		}
	}
	// Seven matches and two stream writes answered 200, one payload each.
	if want := fmt.Sprintf("papd_engine_steps_total %d", 9*len(payload)); len(steps) != 1 || steps[0] != want {
		t.Errorf("papd_engine_steps_total samples = %q, want exactly [%q]", steps, want)
	}
}

// TestAPStatsWireKeys pins the "ap" object of a parallel match response —
// its key set, key order and JSON value types — for a plain and a scored
// request. The lists are literal, taken from the responses of the commit
// before pap.RunStats itself became the wire record, less the mode and SFA
// keys that left with SFA mode and engine_switches, which left with the
// cost-switching engine, so the struct and its tags cannot drift from what
// clients already parse.
func TestAPStatsWireKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg, _ := json.Marshal(registerRequest{
		Name:     "ids",
		Patterns: []string{"a[a-z ]*k", "GET /admin", `[0-9][0-9]:[0-9][0-9]`},
	})
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d %q", code, body)
	}
	payload := testInput(1<<15, 42, "attack", "GET /admin", "13:37")

	common := []string{
		"segments:number", "speedup:number", "ideal_speedup:number",
		"baseline_ns:number", "parallel_ns:number", "cut_symbol:number",
		"cut_range:number", "avg_active_flows:number",
		"switch_overhead_pct:number", "false_report_ratio:number",
		"prefilter_skipped:number", "baseline_skipped:number",
	}
	with := func(extra ...string) []string {
		return append(append(append([]string{}, common...), extra...), "verified:bool")
	}
	cases := []struct {
		query string
		want  []string
	}{
		{"mode=parallel&ranks=2&segments=8", with()},
		{"mode=parallel&ranks=2&segments=8&scored=true", with("scored:bool", "scored_reports:number")},
	}
	for _, c := range cases {
		code, body := doJSON(t, "POST", ts.URL+"/v1/automata/ids/match?"+c.query, payload, nil)
		if code != 200 {
			t.Fatalf("?%s = %d %q", c.query, code, body)
		}
		var resp struct {
			AP json.RawMessage `json:"ap"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		// Walk the object with a token decoder: a map would lose the order.
		dec := json.NewDecoder(bytes.NewReader(resp.AP))
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			t.Fatalf("?%s: ap = %q, not an object", c.query, resp.AP)
		}
		var got []string
		for dec.More() {
			key, _ := dec.Token()
			val, err := dec.Token()
			if err != nil {
				t.Fatalf("?%s: ap = %q: %v", c.query, resp.AP, err)
			}
			typ := "other"
			switch val.(type) {
			case float64:
				typ = "number"
			case string:
				typ = "string"
			case bool:
				typ = "bool"
			}
			got = append(got, fmt.Sprintf("%v:%s", key, typ))
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("?%s: ap keys\n got %v\nwant %v", c.query, got, c.want)
		}
	}
}

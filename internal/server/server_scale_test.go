package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// doJSONKey is doJSON with an X-API-Key header, for tenant-quota tests.
func doJSONKey(t *testing.T, method, url, key string, body []byte, out any) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
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
	return resp.StatusCode, resp.Header, data
}

// TestServerHotReloadPinsSessions proves the zero-downtime reload
// contract over HTTP: a streaming session opened against v1 keeps
// matching v1's patterns after the ruleset is re-registered, new match
// requests see v2, and the version gauge reports the live version.
func TestServerHotReloadPinsSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	reg := func(pattern string) []byte {
		return []byte(fmt.Sprintf(`{"name": "rs", "patterns": [%q]}`, pattern))
	}
	var v1 automatonJSON
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg("alpha"), &v1); code != 201 {
		t.Fatalf("register v1 = %d: %s", code, body)
	}

	var si SessionInfo
	if code, body := doJSON(t, "POST", ts.URL+"/v1/streams", []byte(`{"automaton": "rs"}`), &si); code != 201 {
		t.Fatalf("open stream = %d: %s", code, body)
	}
	if si.RulesetVersion != 1 {
		t.Fatalf("session ruleset_version = %d, want 1", si.RulesetVersion)
	}

	// Hot reload: same name, new pattern, version 2 — while the session
	// stays open.
	var v2 automatonJSON
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg("bravo"), &v2); code != 200 {
		t.Fatalf("hot reload = %d: %s", code, body)
	}
	if v2.Version != 2 {
		t.Fatalf("reloaded version = %d, want 2", v2.Version)
	}

	// The pinned session still speaks v1: alpha matches, bravo does not.
	var wr streamWriteResponse
	wurl := ts.URL + "/v1/streams/" + si.ID + "/write"
	if code, body := doJSON(t, "POST", wurl, []byte("alpha bravo "), &wr); code != 200 {
		t.Fatalf("post-reload stream write = %d: %s", code, body)
	}
	if len(wr.Matches) != 1 {
		t.Fatalf("pinned session found %d matches in %q, want 1 (alpha only)", len(wr.Matches), "alpha bravo ")
	}

	// New one-shot matches run against v2: bravo matches, alpha does not.
	var mr matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/rs/match", []byte("alpha bravo "), &mr); code != 200 {
		t.Fatalf("post-reload match = %d: %s", code, body)
	}
	if len(mr.Matches) != 1 {
		t.Fatalf("post-reload match found %d matches, want 1 (bravo only)", len(mr.Matches))
	}

	// The session info still reports its pinned version, both directly
	// and in the session listing.
	var got SessionInfo
	if code, body := doJSON(t, "GET", ts.URL+"/v1/streams/"+si.ID, nil, &got); code != 200 {
		t.Fatalf("stream get = %d: %s", code, body)
	}
	if got.RulesetVersion != 1 {
		t.Fatalf("post-reload session ruleset_version = %d, want 1 (pinned)", got.RulesetVersion)
	}
	var list struct {
		Streams []SessionInfo `json:"streams"`
	}
	if code, body := doJSON(t, "GET", ts.URL+"/v1/streams", nil, &list); code != 200 {
		t.Fatalf("stream list = %d: %s", code, body)
	}
	if len(list.Streams) != 1 || list.Streams[0].RulesetVersion != 1 {
		t.Fatalf("stream list = %+v, want one session pinned to version 1", list.Streams)
	}

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if !strings.Contains(string(metrics), `papd_ruleset_version{automaton="rs"} 2`) {
		t.Errorf("metrics missing papd_ruleset_version 2:\n%s", metrics)
	}
}

// TestSessionMatchesCountedOnPinnedVersion: a streaming session's requests
// and matches are credited to the ruleset version it is pinned to — not to
// whatever version the name serves by the time of the write, and not to
// nothing once the name is deleted — while the name's
// papd_automaton_matches_total series keeps moving throughout.
func TestSessionMatchesCountedOnPinnedVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := []byte(`{"name": "rs", "patterns": ["alpha"]}`)
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register v1 = %d: %s", code, body)
	}
	var si SessionInfo
	if code, body := doJSON(t, "POST", ts.URL+"/v1/streams", []byte(`{"automaton": "rs"}`), &si); code != 201 {
		t.Fatalf("open stream = %d: %s", code, body)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 200 {
		t.Fatalf("hot reload = %d: %s", code, body)
	}

	const series = `papd_automaton_matches_total{automaton="rs"}`
	write := func(want float64) {
		t.Helper()
		var wr streamWriteResponse
		code, body := doJSON(t, "POST", ts.URL+"/v1/streams/"+si.ID+"/write", []byte("alpha alpha "), &wr)
		if code != 200 || len(wr.Matches) != 2 {
			t.Fatalf("stream write = %d: %s, want 2 matches", code, body)
		}
		if got := metricValue(t, ts.URL, series); got != want {
			t.Fatalf("%s = %v after the write, want %v", series, got, want)
		}
	}

	write(2)
	var v2 automatonJSON
	if code, body := doJSON(t, "GET", ts.URL+"/v1/automata/rs", nil, &v2); code != 200 || v2.Version != 2 {
		t.Fatalf("get v2 = %d: %s", code, body)
	}
	if v2.Requests != 0 || v2.Matches != 0 {
		t.Fatalf("v2 shows %d requests, %d matches: a v1 session's write was credited to it", v2.Requests, v2.Matches)
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/automata/rs", nil, nil); code != 204 {
		t.Fatalf("delete = %d, want 204", code)
	}
	write(4)
}

// TestServerTenantQuota proves per-tenant throttling over HTTP: a tenant
// over budget gets 429 with a Retry-After header while other tenants are
// untouched.
func TestServerTenantQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, TenantRPS: 0.5, TenantBurst: 2})

	reg := []byte(`{"name": "rs", "patterns": ["needle"]}`)
	if code, _, body := doJSONKey(t, "POST", ts.URL+"/v1/automata", "", reg, nil); code != 201 {
		t.Fatalf("register = %d: %s", code, body)
	}

	url := ts.URL + "/v1/automata/rs/match"
	for i := 0; i < 2; i++ {
		if code, _, body := doJSONKey(t, "POST", url, "alice", []byte("xx needle"), nil); code != 200 {
			t.Fatalf("alice burst request %d = %d: %s", i, code, body)
		}
	}
	code, hdr, body := doJSONKey(t, "POST", url, "alice", []byte("xx needle"), nil)
	if code != 429 {
		t.Fatalf("alice over-quota request = %d: %s, want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}

	// Bob is a different bucket and sails through.
	if code, _, body := doJSONKey(t, "POST", url, "bob", []byte("xx needle"), nil); code != 200 {
		t.Fatalf("bob request while alice throttled = %d: %s", code, body)
	}
	// So does the anonymous tenant (no key at all).
	if code, _, body := doJSONKey(t, "POST", url, "", []byte("xx needle"), nil); code != 200 {
		t.Fatalf("anonymous request while alice throttled = %d: %s", code, body)
	}

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if !strings.Contains(string(metrics), `papd_quota_rejected_total{bucket="own"} 1`) {
		t.Errorf("metrics missing alice's quota rejection:\n%s", metrics)
	}
}

// TestServerCoalescingHTTP proves a burst of small concurrent matches is
// served in shared batches: every request answers correctly and the
// batch counters show fewer batches than requests.
func TestServerCoalescingHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, BatchWindow: 15 * time.Millisecond})

	reg := []byte(`{"name": "rs", "patterns": ["needle"]}`)
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d: %s", code, body)
	}

	const n = 24
	var wg sync.WaitGroup
	var ok atomic.Int64
	url := ts.URL + "/v1/automata/rs/match"
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mr matchResponse
			code, body := doJSON(t, "POST", url, []byte(fmt.Sprintf("payload %d needle", i)), &mr)
			if code != 200 {
				t.Errorf("request %d = %d: %s", i, code, body)
				return
			}
			if len(mr.Matches) != 1 {
				t.Errorf("request %d: %d matches, want 1", i, len(mr.Matches))
				return
			}
			ok.Add(1)
		}(i)
	}
	wg.Wait()
	if got := ok.Load(); got != n {
		t.Fatalf("%d of %d coalesced requests succeeded", got, n)
	}

	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	var batches, reqs int64
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "papd_batches_total ") {
			fmt.Sscanf(line, "papd_batches_total %d", &batches)
		}
		if strings.HasPrefix(line, "papd_batched_requests_total ") {
			fmt.Sscanf(line, "papd_batched_requests_total %d", &reqs)
		}
	}
	if reqs != n {
		t.Errorf("papd_batched_requests_total = %d, want %d", reqs, n)
	}
	if batches < 1 || batches >= n {
		t.Errorf("papd_batches_total = %d for %d requests, want coalescing", batches, n)
	}
}

// TestServerLargePayloadSkipsCoalescing proves payloads over
// BatchMaxBytes dispatch alone even with coalescing on.
func TestServerLargePayloadSkipsCoalescing(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, BatchWindow: 10 * time.Millisecond, BatchMaxBytes: 64,
	})
	reg := []byte(`{"name": "rs", "patterns": ["needle"]}`)
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata", reg, nil); code != 201 {
		t.Fatalf("register = %d: %s", code, body)
	}
	payload := append(bytes.Repeat([]byte("x"), 200), []byte("needle")...)
	var mr matchResponse
	if code, body := doJSON(t, "POST", ts.URL+"/v1/automata/rs/match", payload, &mr); code != 200 {
		t.Fatalf("large match = %d: %s", code, body)
	}
	if len(mr.Matches) != 1 {
		t.Fatalf("large match found %d matches, want 1", len(mr.Matches))
	}
	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if strings.Contains(string(metrics), "papd_batched_requests_total 1") {
		t.Error("payload over BatchMaxBytes went through the coalescer")
	}
}

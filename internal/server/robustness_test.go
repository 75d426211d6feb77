package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionExpiryRacesInFlightWrite hammers a session with concurrent
// context-aware writes while the idle reaper expires it (run under -race):
// every write must either land fully before the expiry or fail with
// ErrSessionNotFound — never corrupt state or panic — and once one write
// has seen the session closed, all later ones must too.
func TestSessionExpiryRacesInFlightWrite(t *testing.T) {
	for round := 0; round < 20; round++ {
		m := NewSessionManager(0, 10*time.Millisecond)
		s, err := m.Create(testEntry(t), false)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunk := []byte("xxneedlexx")
				closed := false
				for i := 0; i < 50; i++ {
					_, _, _, err := s.WriteContext(context.Background(), chunk)
					switch {
					case errors.Is(err, ErrSessionNotFound):
						closed = true
					case err != nil:
						t.Errorf("unexpected write error: %v", err)
						return
					case closed:
						t.Error("write succeeded after the session was seen closed")
						return
					}
				}
			}()
		}
		wg.Wait()
		m.Stop()
		if t.Failed() {
			return
		}
	}
}

// slowPayload is random text over the patterns' alphabet, big enough that
// matching it takes well over a millisecond on any machine.
func slowPayload(n int) []byte {
	rng := rand.New(rand.NewSource(99))
	out := make([]byte, n)
	for i := range out {
		out[i] = "abcd  \n"[rng.Intn(7)]
	}
	return out
}

func registerSlow(t *testing.T, ts string) {
	t.Helper()
	body, _ := json.Marshal(registerRequest{Name: "slow", Patterns: []string{"ab", "cd"}})
	code, _ := doJSON(t, http.MethodPost, ts+"/v1/automata", body, nil)
	if code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
}

// metricValue extracts a counter sample from the /metrics exposition.
func metricValue(t *testing.T, ts, sample string) float64 {
	t.Helper()
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` ([0-9.e+-]+)$`)
	mm := re.FindSubmatch(raw)
	if mm == nil {
		t.Fatalf("sample %q not found in /metrics:\n%s", sample, raw)
	}
	v, err := strconv.ParseFloat(string(mm[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMatchTimeoutMS is the tentpole acceptance check: a match with
// timeout_ms=10 against a payload that needs much longer comes back
// promptly as 503 with partial progress, and the deadline cancellation
// metric is incremented.
func TestMatchTimeoutMS(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerSlow(t, ts.URL)
	sample := `papd_match_cancellations_total{reason="deadline"}`
	if v := metricValue(t, ts.URL, sample); v != 0 {
		t.Fatalf("deadline cancellations = %v before any request", v)
	}

	for _, mode := range []string{"sequential", "parallel"} {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/automata/slow/match?mode="+mode+"&timeout_ms=10",
			"application/octet-stream", bytes.NewReader(slowPayload(64<<20/8))) // 8 MiB
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: 10ms timeout took %v to come back", mode, elapsed)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, body %s", mode, resp.StatusCode, raw)
		}
		var ab abortResponse
		if err := json.Unmarshal(raw, &ab); err != nil {
			t.Fatalf("%s: bad abort body %s: %v", mode, raw, err)
		}
		if ab.Reason != "deadline" {
			t.Fatalf("%s: reason %q, want deadline", mode, ab.Reason)
		}
		if len(ab.Progress) == 0 {
			t.Fatalf("%s: no partial progress in %s", mode, raw)
		}
		for _, p := range ab.Progress {
			if p.Start > p.Pos || p.Pos > p.End {
				t.Fatalf("%s: progress out of range: %+v", mode, p)
			}
		}
	}
	if v := metricValue(t, ts.URL, sample); v < 2 {
		t.Fatalf("deadline cancellations = %v after two timed-out matches", v)
	}
}

// TestMatchTimeoutMSValidation rejects malformed timeout_ms with 400.
func TestMatchTimeoutMSValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerSlow(t, ts.URL)
	for _, bad := range []string{"0", "-5", "abc", "1.5"} {
		resp, err := http.Post(ts.URL+"/v1/automata/slow/match?timeout_ms="+bad,
			"application/octet-stream", strings.NewReader("abcd"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestMaxMatchDuration: the server-wide cap fires even when the request
// asks for a much longer timeout_ms.
func TestMaxMatchDuration(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMatchDuration: 10 * time.Millisecond})
	registerSlow(t, ts.URL)
	resp, err := http.Post(ts.URL+"/v1/automata/slow/match?timeout_ms=60000",
		"application/octet-stream", bytes.NewReader(slowPayload(8<<20)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	var ab abortResponse
	if err := json.Unmarshal(raw, &ab); err != nil || ab.Reason != "deadline" {
		t.Fatalf("abort body %s (err %v)", raw, err)
	}
}

// TestStreamWriteTimeoutMS: a stream write under timeout_ms comes back 503
// with the offset it reached, and a follow-up write resumes from there.
func TestStreamWriteTimeoutMS(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerSlow(t, ts.URL)
	body, _ := json.Marshal(openStreamRequest{Automaton: "slow"})
	var info SessionInfo
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/streams", body, &info)
	if code != http.StatusCreated {
		t.Fatalf("open stream: %d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/streams/"+info.ID+"/write?timeout_ms=10",
		"application/octet-stream", bytes.NewReader(slowPayload(8<<20)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	var ab abortResponse
	if err := json.Unmarshal(raw, &ab); err != nil {
		t.Fatalf("abort body %s: %v", raw, err)
	}
	if ab.Reason != "deadline" || ab.Offset <= 0 || ab.Offset >= 8<<20 {
		t.Fatalf("abort = %+v, want a deadline stop strictly inside the chunk", ab)
	}

	// The next write picks up at the committed offset.
	var wr streamWriteResponse
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/streams/"+info.ID+"/write", []byte("abcd"), &wr)
	if code != http.StatusOK {
		t.Fatalf("resume write: %d", code)
	}
	if wr.Offset != ab.Offset+4 {
		t.Fatalf("resume offset %d, want %d", wr.Offset, ab.Offset+4)
	}
}

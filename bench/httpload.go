package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pap/internal/server"
)

// spanHeader carries the client span's ID to the handler middleware, which
// makes it the parent of the handler span.
const spanHeader = "X-Bench-Span"

// node is one in-process papd replica behind a real loopback listener.
type node struct {
	srv     *server.Server
	httpSrv *http.Server
	addr    string
	served  chan error
	handled atomic.Int64 // requests seen by the tracing middleware
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode serves server.New(cfg) on ln. With a tracer, a middleware
// around Server.Handler() records one span per request under handlerSpan.
func startNode(ln net.Listener, cfg server.Config, tr *tracer, handlerSpan string) *node {
	n := &node{srv: server.New(cfg), addr: ln.Addr().String(), served: make(chan error, 1)}
	h := n.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.handled.Add(1)
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			id, start := tr.id(), time.Now()
			inner.ServeHTTP(w, r)
			tr.record(id, parent, handlerSpan, start, time.Now(), map[string]any{"path": r.URL.Path})
		})
	}
	n.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.served <- n.httpSrv.Serve(ln) }()
	return n
}

// stop drains the replica and waits for its serving goroutine.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.httpSrv.Shutdown(ctx) // on timeout the connections are closed below
	_ = n.httpSrv.Close()
	<-n.served
	_ = n.srv.Shutdown(ctx) // no http.Server of its own: closes the pool and the session reaper
}

func (n *node) url(path string) string { return "http://" + n.addr + path }

// newClient returns a client that keeps one connection alive.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends body and returns the status and the whole response body.
func post(c *http.Client, method, url string, body []byte, spanID int64) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register posts the workload's ruleset and expects 201.
func (p *prepared) register(c *http.Client, n *node) error {
	body, err := json.Marshal(map[string]any{"name": p.name, "patterns": p.patterns})
	if err != nil {
		return err
	}
	code, data, err := post(c, "POST", n.url("/v1/automata"), body, 0)
	if err != nil {
		return fmt.Errorf("register %s: %w", p.name, err)
	}
	if code != http.StatusCreated {
		return fmt.Errorf("register %s: status %d: %s", p.name, code, data)
	}
	return nil
}

var codeKey = []byte(`"code":`)

// checkMatchBody checks a match (or stream write) response against ref: the
// match count always, the decoded matches when full is set.
func checkMatchBody(body []byte, ref []match, full bool) bool {
	if bytes.Count(body, codeKey) != len(ref) {
		return false
	}
	if !full {
		return true
	}
	var resp struct {
		Matches []match `json:"matches"`
	}
	return json.Unmarshal(body, &resp) == nil && sameMatches(resp.Matches, ref)
}

// load is what one client loop observed.
type load struct {
	latMS     []float64 // one per request, in completion order per client
	attempted int
	failed    int
	rejected  int // 429 answers (counted as failed too)
	respBytes int64
	late      int // open loop: requests sent more than lateAfter past due
	elapsed   time.Duration
}

func (l *load) merge(o load) {
	l.latMS = append(l.latMS, o.latMS...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.rejected += o.rejected
	l.respBytes += o.respBytes
	l.late += o.late
}

func (l load) rps() float64 { return float64(len(l.latMS)) / l.elapsed.Seconds() }

// drive runs fn on clients goroutines, each with a keep-alive client of its
// own and its own tally, waits for them and returns the merged tally.
func drive(clients int, fn func(c int, client *http.Client, l *load)) load {
	out := make([]load, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer closeClient(client)
			fn(c, client, &out[c])
		}()
	}
	wg.Wait()
	total := load{elapsed: time.Since(start)}
	for _, l := range out {
		total.merge(l)
	}
	return total
}

// lateAfter is how far behind schedule an open-loop send counts as late.
const lateAfter = time.Millisecond

// matchLoad drives POST /v1/automata/{name}/match<query> on n from clients
// goroutines, one keep-alive connection each, with rotating payloads, for
// slice. rate == 0 is a closed loop: a client sends its next request when
// the previous reply has arrived. rate > 0 is an open loop: request k is
// due at start + k/rate whatever happened before, and its latency runs
// from when it was due.
func (p *prepared) matchLoad(n *node, query string, clients int, rate int, slice time.Duration, tr *tracer, spanName string) load {
	url := n.url("/v1/automata/" + p.name + "/match" + query)
	start := time.Now()
	deadline := start.Add(slice)
	return drive(clients, func(c int, client *http.Client, l *load) {
		for k := c; ; k += clients {
			from := time.Now()
			if rate > 0 {
				due := start.Add(time.Duration(k) * time.Second / time.Duration(rate))
				if due.After(deadline) {
					return
				}
				if wait := due.Sub(from); wait > 0 {
					time.Sleep(wait)
				} else if -wait > lateAfter {
					l.late++
				}
				from = due
			} else if !from.Before(deadline) {
				return
			}
			i := k % len(p.payloads)
			id, sent := tr.id(), time.Now()
			code, body, err := post(client, "POST", url, p.payloads[i], id)
			end := time.Now()
			if tr != nil {
				tr.record(id, 0, spanName, sent, end, map[string]any{"payload": i, "status": code})
			}
			l.attempted++
			l.respBytes += int64(len(body))
			if err != nil || code != http.StatusOK || !checkMatchBody(body, p.refPayloads[i], k%16 == 0) {
				l.failed++
				if code == http.StatusTooManyRequests {
					l.rejected++
				}
				continue
			}
			l.latMS = append(l.latMS, float64(end.Sub(from))/1e6)
		}
	})
}

// streamLoad drives streaming sessions from clients goroutines for slice:
// open a session, write one payload chunk by chunk, close. latMS holds the
// per-write latencies.
func (p *prepared) streamLoad(n *node, clients int, slice time.Duration) load {
	open, err := json.Marshal(map[string]string{"automaton": p.name})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	deadline := time.Now().Add(slice)
	return drive(clients, func(c int, client *http.Client, l *load) {
		for k := c; time.Now().Before(deadline); k += clients {
			i := k % len(p.payloads)
			code, body, err := post(client, "POST", n.url("/v1/streams"), open, 0)
			var sess struct {
				ID string `json:"id"`
			}
			l.attempted++
			if err != nil || code != http.StatusCreated || json.Unmarshal(body, &sess) != nil {
				l.failed++
				continue
			}
			var got []match
			for _, chunk := range split(p.payloads[i], p.chunk) {
				t0 := time.Now()
				code, body, err := post(client, "POST", n.url("/v1/streams/"+sess.ID+"/write"), chunk, 0)
				lat := time.Since(t0)
				var wr struct {
					Matches []match `json:"matches"`
				}
				l.attempted++
				if err != nil || code != http.StatusOK || json.Unmarshal(body, &wr) != nil {
					l.failed++
					continue
				}
				got = append(got, wr.Matches...)
				l.latMS = append(l.latMS, float64(lat)/1e6)
			}
			if !sameMatches(got, p.refPayloads[i]) {
				l.failed++
			}
			if code, _, err := post(client, "DELETE", n.url("/v1/streams/"+sess.ID), nil, 0); err != nil || code >= 300 {
				l.failed++
			}
		}
	})
}

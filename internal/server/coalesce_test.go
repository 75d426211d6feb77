package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pap"
)

func coalesceEntry(t *testing.T, patterns ...string) *Entry {
	t.Helper()
	a, err := pap.Compile("coalesce-test", patterns)
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{Name: "coalesce-test", Version: 1, Kind: "regex",
		Patterns: len(patterns), Automaton: a}
}

// TestCoalescerDisabled proves window <= 0 disables coalescing and that
// the nil receiver answers Enabled safely.
func TestCoalescerDisabled(t *testing.T) {
	p := NewLimiter(1, 4)
	defer p.Close()
	if c := NewCoalescer(p, 0, 8, time.Second); c != nil {
		t.Fatalf("NewCoalescer(window=0) = %v, want nil", c)
	}
	var c *Coalescer
	if c.Enabled() {
		t.Fatal("nil Coalescer.Enabled() = true")
	}
}

// TestCoalescerBatchesAndDemuxes sends a burst of concurrent small
// matches through one coalescer and checks (a) every request gets its
// own correct result and (b) the burst consumed strictly fewer pool
// tasks than requests.
func TestCoalescerBatchesAndDemuxes(t *testing.T) {
	p := NewLimiter(2, 64)
	defer p.Close()
	c := NewCoalescer(p, 20*time.Millisecond, 64, time.Second)
	m := NewMetrics()
	c.batchesTotal = m.Counter("b", "", "")
	c.requestsTotal = m.Counter("r", "", "")
	c.sizeHist = m.Histogram("s", "", "", []float64{1, 2, 4, 8, 16})

	e := coalesceEntry(t, "needle")
	const n = 24
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte("haystack")
			if i%2 == 0 {
				payload = []byte("xx needle xx")
			}
			ms, _, err := c.Match(context.Background(), e, payload)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if len(ms) > 0 {
				hits.Add(1)
			}
			if i%2 == 0 && len(ms) != 1 {
				t.Errorf("request %d: %d matches, want 1", i, len(ms))
			}
			if i%2 == 1 && len(ms) != 0 {
				t.Errorf("request %d: %d matches, want 0", i, len(ms))
			}
		}(i)
	}
	wg.Wait()

	if got := hits.Load(); got != n/2 {
		t.Errorf("demuxed hits = %d, want %d", got, n/2)
	}
	batches, reqs := c.batchesTotal.Value(), c.requestsTotal.Value()
	if reqs != n {
		t.Errorf("batched requests = %d, want %d", reqs, n)
	}
	if batches < 1 || batches >= n {
		t.Errorf("batches = %d for %d requests, want coalescing (1 <= batches < %d)", batches, n, n)
	}
	if p.Started() >= n {
		t.Errorf("pool tasks started = %d for %d requests, want fewer (one per batch)", p.Started(), n)
	}
}

// TestCoalescerMaxBatchFlushesEarly proves a batch reaching maxBatch is
// flushed immediately rather than waiting out the window.
func TestCoalescerMaxBatchFlushesEarly(t *testing.T) {
	p := NewLimiter(1, 16)
	defer p.Close()
	// A window so long the test would time out if the size trigger failed.
	c := NewCoalescer(p, time.Hour, 4, time.Second)
	e := coalesceEntry(t, "x")

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Match(context.Background(), e, []byte("x")); err != nil {
				t.Errorf("Match: %v", err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("full batch took %v, want immediate flush", elapsed)
	}
}

// TestCoalescerCancelledItemSkipped proves a request whose context died
// before its turn is answered with its ctx error and costs the batch no
// matching work, while its batch-mates complete normally.
func TestCoalescerCancelledItemSkipped(t *testing.T) {
	p := NewLimiter(1, 16)
	defer p.Close()
	c := NewCoalescer(p, 30*time.Millisecond, 64, time.Second)
	e := coalesceEntry(t, "x")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // dead before the batch window even closes

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, err := c.Match(cancelled, e, []byte("x"))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled item err = %v, want context.Canceled", err)
		}
	}()
	go func() {
		defer wg.Done()
		ms, _, err := c.Match(context.Background(), e, []byte("x"))
		if err != nil || len(ms) != 1 {
			t.Errorf("live batch-mate = (%d matches, %v), want (1, nil)", len(ms), err)
		}
	}()
	wg.Wait()
}

// TestCoalescerPoolErrorFansOut proves that when the batch task cannot
// be queued every member of the batch receives the pool's error, exactly
// as if each had submitted alone.
func TestCoalescerPoolErrorFansOut(t *testing.T) {
	p := NewLimiter(1, 1)
	c := NewCoalescer(p, 10*time.Millisecond, 64, time.Second)
	e := coalesceEntry(t, "x")
	p.Close() // every submission now fails with ErrPoolClosed

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := c.Match(context.Background(), e, []byte("x"))
			if !errors.Is(err, ErrPoolClosed) {
				t.Errorf("item %d err = %v, want ErrPoolClosed", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestCoalescerVersionsNeverShareBatches proves batches key on the entry
// pointer: requests pinned to different ruleset versions of the same
// name run in separate batches against their own automata.
func TestCoalescerVersionsNeverShareBatches(t *testing.T) {
	p := NewLimiter(2, 16)
	defer p.Close()
	c := NewCoalescer(p, 20*time.Millisecond, 64, time.Second)

	r := NewRegistry(4)
	v1, err := r.Register("rs", "regex", []string{"alpha"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Register("rs", "regex", []string{"bravo"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ms, _, err := c.Match(context.Background(), v1, []byte("alpha bravo"))
		if err != nil || len(ms) != 1 {
			t.Errorf("v1 batch = (%d matches, %v), want 1 alpha match", len(ms), err)
		}
	}()
	go func() {
		defer wg.Done()
		ms, _, err := c.Match(context.Background(), v2, []byte("alpha bravo"))
		if err != nil || len(ms) != 1 {
			t.Errorf("v2 batch = (%d matches, %v), want 1 bravo match", len(ms), err)
		}
	}()
	wg.Wait()
}

// TestCoalescerHonoursDeadlineWhileQueued proves a coalesced request
// answers its own deadline while its batch still waits for a slot, as a
// request admitted alone does, instead of waiting for the slot to free.
func TestCoalescerHonoursDeadlineWhileQueued(t *testing.T) {
	p := NewLimiter(1, 16)
	defer p.Close()
	c := NewCoalescer(p, 5*time.Millisecond, 64, 30*time.Second)
	e := coalesceEntry(t, "x")

	held, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go p.Do(context.Background(), func() {
		close(held)
		select {
		case <-release:
		case <-time.After(2 * time.Second):
		}
	})
	<-held

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Match(ctx, e, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Match returned after %v with the slot held, want its 50ms deadline", d)
	}
}

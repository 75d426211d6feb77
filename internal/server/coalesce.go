package server

import (
	"context"
	"sync"
	"time"

	"pap"
)

// Coalescer batches small sequential match requests that share a ruleset
// version. Requests arriving within one batch window are grouped and
// served by a single admission through the limiter that steps the shared
// automaton over each payload in turn, then demuxes the per-request
// results — so a burst of N small payloads costs one slot instead of N,
// which is what keeps slots available for large payloads when millions of
// small probes arrive.
//
// Batches key on the *Entry pointer, not the name: a hot reload installs
// a new entry, so requests pinned to different ruleset versions can
// never share a batch.
type Coalescer struct {
	window       time.Duration
	maxBatch     int
	limiter      *Limiter
	queueTimeout time.Duration

	mu      sync.Mutex
	batches map[*Entry]*batch

	// Metrics, optional (nil-safe): flushed batches, requests served
	// through batches, and the batch-size distribution.
	batchesTotal  *Counter
	requestsTotal *Counter
	sizeHist      *Histogram
}

type batch struct {
	items []*batchItem
	timer *time.Timer
}

type batchItem struct {
	ctx     context.Context
	payload []byte

	once sync.Once
	done chan struct{}
	ms   []pap.Match
	info pap.EngineInfo
	err  error
}

func (it *batchItem) deliver(ms []pap.Match, info pap.EngineInfo, err error) {
	it.once.Do(func() {
		it.ms, it.info, it.err = ms, info, err
		close(it.done)
	})
}

// NewCoalescer returns a coalescer flushing batches after window (or
// earlier, at maxBatch requests), admitting each batch through limiter as
// one unit with queueTimeout bounding the wait for a slot. window <= 0
// disables coalescing and returns nil.
func NewCoalescer(limiter *Limiter, window time.Duration, maxBatch int, queueTimeout time.Duration) *Coalescer {
	if window <= 0 {
		return nil
	}
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if queueTimeout <= 0 {
		queueTimeout = 30 * time.Second
	}
	return &Coalescer{
		window:       window,
		maxBatch:     maxBatch,
		limiter:      limiter,
		queueTimeout: queueTimeout,
		batches:      make(map[*Entry]*batch),
	}
}

// Enabled reports whether the coalescer is active (nil-safe).
func (c *Coalescer) Enabled() bool { return c != nil }

// Match joins (or opens) the batch for e, waits for the batch to run its
// payload, and returns this request's demuxed result. ctx bounds both the
// wait and the execution of this request's payload inside the batch: a
// request whose ctx expires returns ctx.Err() at once, even while its
// batch still waits for a slot, and costs the batch nothing.
func (c *Coalescer) Match(ctx context.Context, e *Entry, payload []byte) ([]pap.Match, pap.EngineInfo, error) {
	it := &batchItem{ctx: ctx, payload: payload, done: make(chan struct{})}

	c.mu.Lock()
	b := c.batches[e]
	if b == nil {
		b = &batch{}
		c.batches[e] = b
		b.timer = time.AfterFunc(c.window, func() {
			if c.detach(e, b) {
				c.run(e, b)
			}
		})
	}
	b.items = append(b.items, it)
	if len(b.items) >= c.maxBatch {
		// Full before the window closed: flush immediately.
		delete(c.batches, e)
		b.timer.Stop()
		c.mu.Unlock()
		go c.run(e, b)
	} else {
		c.mu.Unlock()
	}

	select {
	case <-it.done:
		return it.ms, it.info, it.err
	case <-ctx.Done():
		// The batch may still be waiting for a slot: answer the deadline
		// now, as a request admitted alone would. run skips this item when
		// the batch gets its slot, and deliver is once-guarded.
		return nil, pap.EngineInfo{}, ctx.Err()
	}
}

// detach removes b from the live map if it is still the current batch
// for e, claiming the right to run it (the size trigger in Match may
// have claimed it first).
func (c *Coalescer) detach(e *Entry, b *batch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batches[e] != b {
		return false
	}
	delete(c.batches, e)
	return true
}

// run admits the batch through the limiter once and serves every item in
// it. Limiter errors (queue full, closed, slot-wait timeout, a panic) fan
// out to every still-undelivered item so each request answers with the
// same signal it would have seen submitting alone.
func (c *Coalescer) run(e *Entry, b *batch) {
	if c.batchesTotal != nil {
		c.batchesTotal.Inc()
		c.requestsTotal.Add(int64(len(b.items)))
		c.sizeHist.Observe(float64(len(b.items)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.queueTimeout)
	defer cancel()
	err := c.limiter.Do(ctx, func() {
		for _, it := range b.items {
			if it.ctx.Err() != nil {
				it.deliver(nil, pap.EngineInfo{}, it.ctx.Err())
				continue
			}
			ms, info, err := e.Automaton.MatchWithInfoContext(it.ctx, it.payload, pap.EngineAuto)
			it.deliver(ms, info, err)
		}
	})
	if err != nil {
		for _, it := range b.items {
			it.deliver(nil, pap.EngineInfo{}, err)
		}
	}
}

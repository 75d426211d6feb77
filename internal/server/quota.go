package server

import (
	"math"
	"sync"
	"time"
)

// Quotas enforces per-tenant fairness on the worker pool with one token
// bucket per tenant label (papd takes the label from the X-API-Key
// header, falling back to "anonymous"). Every match and stream-write
// request spends one token before it may touch the pool; an empty bucket
// yields a 429 with a Retry-After telling the tenant exactly when the
// next token lands. One tenant flooding the server therefore throttles
// only itself — everyone else's buckets refill independently.
type Quotas struct {
	rps   float64 // tokens added per second
	burst float64 // bucket capacity
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	// overflow is the one bucket every untracked tenant shares while the
	// map is full of buckets still refilling; nextScan is the earliest
	// instant another eviction scan could free one.
	overflow bucket
	nextScan time.Time
}

type bucket struct {
	tokens float64
	last   time.Time // last refill instant
}

// maxTenants bounds the bucket map: beyond it, fully-refilled (idle)
// buckets are discarded — semantically a no-op, since a fresh bucket
// also starts full. When none is idle, new tenants share one overflow
// bucket until a scan can free a slot, so the map never grows past the
// cap and a flood of fresh keys costs one scan per refill period, not
// one per key.
const maxTenants = 8192

// NewQuotas returns a limiter granting each tenant rps requests per
// second with bursts up to burst (burst < 1 is raised to max(rps, 1) so
// a configured tenant can always make progress). rps <= 0 disables
// limiting entirely and returns nil.
func NewQuotas(rps, burst float64) *Quotas {
	if rps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = math.Max(rps, 1)
	}
	return &Quotas{
		rps:     rps,
		burst:   burst,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// Allow spends one token from tenant's bucket. When the bucket is empty
// it reports false with the duration until the next token is available —
// the Retry-After the handler sends with the 429. shared reports whether
// the tenant was charged to the overflow bucket rather than its own.
func (q *Quotas) Allow(tenant string) (ok bool, wait time.Duration, shared bool) {
	if q == nil {
		return true, 0, false
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		if len(q.buckets) >= maxTenants && !now.Before(q.nextScan) {
			q.evictIdleLocked(now)
			// A bucket spent at the scan is full again burst/rps later.
			q.nextScan = now.Add(time.Duration(q.burst / q.rps * float64(time.Second)))
		}
		if len(q.buckets) < maxTenants {
			b = &bucket{tokens: q.burst, last: now}
			q.buckets[tenant] = b
		} else {
			b = &q.overflow
		}
	}
	shared = b == &q.overflow
	// Lazy refill since the last spend.
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rps)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0, shared
	}
	need := (1 - b.tokens) / q.rps
	return false, time.Duration(math.Ceil(need*1000)) * time.Millisecond, shared
}

// evictIdleLocked drops buckets that have refilled completely: a tenant
// idle long enough to be full again is indistinguishable from one we
// have never seen. Callers hold q.mu.
func (q *Quotas) evictIdleLocked(now time.Time) {
	for t, b := range q.buckets {
		if math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rps) >= q.burst {
			delete(q.buckets, t)
		}
	}
}

// retryAfterSeconds formats a Retry-After header value from a wait
// duration: whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

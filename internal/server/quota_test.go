package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQuotasDisabled proves rps <= 0 disables limiting and that the nil
// receiver is safe everywhere handlers touch it.
func TestQuotasDisabled(t *testing.T) {
	q := NewQuotas(0, 10)
	if q != nil {
		t.Fatalf("NewQuotas(0, _) = %v, want nil", q)
	}
	if ok, wait, _ := q.Allow("anyone"); !ok || wait != 0 {
		t.Fatalf("nil Quotas.Allow = (%v, %v), want (true, 0)", ok, wait)
	}
}

// TestQuotasBucketMath drives the token bucket with an injected clock:
// burst allows an initial flood, then tokens arrive at exactly rps, and
// the reported wait is the time to the next whole token.
func TestQuotasBucketMath(t *testing.T) {
	q := NewQuotas(2, 4) // 2 tokens/s, bucket of 4
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 4; i++ {
		if ok, _, _ := q.Allow("t"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait, _ := q.Allow("t")
	if ok {
		t.Fatal("5th request within burst allowed, want denied")
	}
	// Bucket is at 0 tokens; the next token lands in 1/rps = 500ms.
	if wait != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms", wait)
	}

	now = now.Add(500 * time.Millisecond)
	if ok, _, _ := q.Allow("t"); !ok {
		t.Fatal("request after exactly one refill interval denied")
	}
	if ok, _, _ := q.Allow("t"); ok {
		t.Fatal("second request after one refill interval allowed, want denied")
	}

	// Refill caps at burst: a long idle period grants burst, not more.
	now = now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if ok, _, _ := q.Allow("t"); !ok {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if ok, _, _ := q.Allow("t"); ok {
		t.Fatal("post-idle 5th request allowed: refill exceeded burst")
	}
}

// TestQuotasTenantIsolation proves one tenant draining its bucket never
// costs another tenant a token.
func TestQuotasTenantIsolation(t *testing.T) {
	q := NewQuotas(1, 2)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _, _ := q.Allow("noisy"); !ok {
			t.Fatalf("noisy request %d denied", i)
		}
	}
	if ok, _, _ := q.Allow("noisy"); ok {
		t.Fatal("noisy over-budget request allowed")
	}
	for i := 0; i < 2; i++ {
		if ok, _, _ := q.Allow("quiet"); !ok {
			t.Fatalf("quiet tenant throttled by noisy neighbour (request %d)", i)
		}
	}
	if len(q.buckets) != 2 {
		t.Fatalf("%d buckets, want 2", len(q.buckets))
	}
}

// TestQuotasRetryAfterSeconds pins the header formatting: whole seconds,
// rounded up, never below 1.
func TestQuotasRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{10 * time.Millisecond, 1},
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{5 * time.Second, 5},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestQuotasEvictIdle proves the bucket map stays bounded: once a tenant
// has been idle long enough to refill completely, its bucket is
// reclaimable and a fresh bucket behaves identically.
func TestQuotasEvictIdle(t *testing.T) {
	q := NewQuotas(100, 1)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 10; i++ {
		q.Allow(fmt.Sprintf("tenant-%d", i))
	}
	if len(q.buckets) != 10 {
		t.Fatalf("%d buckets, want 10", len(q.buckets))
	}
	now = now.Add(time.Minute) // everyone refills completely
	q.evictIdleLocked(now)
	if len(q.buckets) != 0 {
		t.Fatalf("%d buckets after idle eviction, want 0", len(q.buckets))
	}
}

// TestQuotasBoundedUnderFlood: fresh tenant keys arriving faster than any
// bucket refills, from several goroutines, never grow the bucket map past
// its cap. The excess shares one overflow bucket, which throttles them
// together, and a slot frees up again once a tracked tenant has refilled.
func TestQuotasBoundedUnderFlood(t *testing.T) {
	q := NewQuotas(1, 1)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	const floods = 4
	var denied atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < floods; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 3*maxTenants; i += floods {
				if ok, _, _ := q.Allow(fmt.Sprintf("tenant-%d", i)); !ok {
					denied.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(q.buckets) > maxTenants+1 {
		t.Fatalf("%d buckets after %d tenants, want at most %d", len(q.buckets), 3*maxTenants, maxTenants+1)
	}
	// Whichever maxTenants keys arrive first get their own full bucket; of
	// the rest, the shared overflow bucket admits one burst.
	if got, want := denied.Load(), int64(2*maxTenants-1); got != want {
		t.Fatalf("%d requests denied, want %d", got, want)
	}
	// Tracked tenants keep their own buckets throughout.
	var tracked string
	for tracked = range q.buckets {
		break
	}
	if ok, _, _ := q.Allow(tracked); ok {
		t.Fatalf("%s spent its burst yet was allowed", tracked)
	}

	now = now.Add(time.Second) // every bucket refills; the next new key rescans
	if ok, _, _ := q.Allow("late"); !ok {
		t.Fatal("a new tenant after the refill period was denied")
	}
	if _, tracked := q.buckets["late"]; !tracked || len(q.buckets) > maxTenants {
		t.Fatalf("after refill: late tracked %v, %d buckets", tracked, len(q.buckets))
	}
}

// TestQuotasConcurrent hammers one shared and many private tenants under
// the race detector and checks token conservation for the shared one.
func TestQuotasConcurrent(t *testing.T) {
	q := NewQuotas(1, 50) // effectively fixed budget of 50 within the test window
	var allowed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if ok, _, _ := q.Allow("shared"); ok {
					mu.Lock()
					allowed++
					mu.Unlock()
				}
				q.Allow(fmt.Sprintf("private-%d", g))
			}
		}(g)
	}
	wg.Wait()
	// 800 attempts against a burst of 50 at 1 rps: the test runs far
	// under a second, so at most burst + a couple refilled tokens pass.
	if allowed < 50 || allowed > 55 {
		t.Fatalf("shared tenant allowed %d of 800, want ~50 (burst)", allowed)
	}
}

// TestQuotaRejectionsKeepKeysOutOfMetrics floods the quota with three times
// maxTenants distinct API keys, each rejected: the rejection counter must
// stay at most two series — the tenant's own bucket and the shared overflow
// one — and no key may reach /metrics, where it would be a credential in a
// scrape target.
func TestQuotaRejectionsKeepKeysOutOfMetrics(t *testing.T) {
	s := New(Config{Workers: 1, TenantRPS: 0.001, TenantBurst: 1})
	defer s.Shutdown(context.Background())
	key := func(i int) string { return fmt.Sprintf("sk-live-%06d", i) }
	rejected := 0
	for i := 0; i < 3*maxTenants; i++ {
		for try := 0; try < 2; try++ { // the first request spends a fresh bucket's one token
			r := httptest.NewRequest("POST", "/v1/automata/x/match", nil)
			r.Header.Set("X-API-Key", key(i))
			if !s.checkQuota(httptest.NewRecorder(), r) {
				rejected++
				break
			}
		}
	}
	if rejected != 3*maxTenants {
		t.Fatalf("%d of %d keys were rejected, want all", rejected, 3*maxTenants)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	metrics := w.Body.String()
	series := 0
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "papd_quota_rejected_total{") {
			series++
		}
	}
	if series == 0 || series > 2 {
		t.Fatalf("papd_quota_rejected_total has %d series, want 1 or 2", series)
	}
	if strings.Contains(metrics, "sk-live-") {
		t.Fatal("/metrics exposes API keys")
	}
}

package server

import (
	"context"
	"errors"
	"io"
	"log"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// occupy fills n slots of l with functions that block until the returned
// release is called, and returns once all n are running.
func occupy(t *testing.T, l *Limiter, n int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	running := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go l.Do(context.Background(), func() { running <- struct{}{}; <-block }) //nolint:errcheck
	}
	for i := 0; i < n; i++ {
		<-running
	}
	return func() { close(block) }
}

// quietLog silences the standard logger for the rest of the test: a
// recovered panic is logged with its stack.
func quietLog(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// waitFor polls a limiter gauge (l.QueueDepth, l.Active) until it reads want.
func waitFor(t *testing.T, what string, get func() int, want int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for get() != want {
		select {
		case <-deadline:
			t.Fatalf("%s = %d, never reached %d", what, get(), want)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestPoolRunsTasks(t *testing.T) {
	p := NewLimiter(4, 8)
	defer p.Close()
	var n, running atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := p.Do(context.Background(), func() {
					if r := running.Add(1); r > 4 {
						t.Errorf("%d tasks running at once, limit 4", r)
					}
					n.Add(1)
					running.Add(-1)
				})
				if err == nil {
					return
				}
				if err != ErrQueueFull {
					t.Errorf("unexpected error: %v", err)
					return
				}
				time.Sleep(time.Millisecond) // backpressure: retry
			}
		}()
	}
	wg.Wait()
	if n.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", n.Load())
	}
}

// TestPoolBackpressure pins the two bounds: with Workers running and
// QueueDepth waiting the next caller is turned away without blocking, and a
// release admits a waiter.
func TestPoolBackpressure(t *testing.T) {
	p := NewLimiter(2, 3)
	defer p.Close()
	release := occupy(t, p, 2)

	var ran atomic.Int64
	queued := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { queued <- p.Do(context.Background(), func() { ran.Add(1) }) }()
	}
	waitFor(t, "queue depth", p.QueueDepth, 3)
	if got := p.Active(); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}

	if err := p.Do(context.Background(), func() { ran.Add(1) }); err != ErrQueueFull {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatal("a task ran past a full limiter")
	}
	release()
	for i := 0; i < 3; i++ {
		if err := <-queued; err != nil {
			t.Fatalf("queued task failed: %v", err)
		}
	}
	if ran.Load() != 3 {
		t.Fatalf("%d queued tasks ran, want 3", ran.Load())
	}
}

func TestPoolTimeoutWhileQueued(t *testing.T) {
	p := NewLimiter(1, 4)
	defer p.Close()
	release := occupy(t, p, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ran := false
	err := p.Do(ctx, func() { ran = true })
	if err != context.DeadlineExceeded {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	release()
	if ran {
		t.Fatal("abandoned queued task still ran")
	}
}

// TestPoolAbandonedAccounting pins the abandonment contract: a caller that
// gives up while it is still waiting is counted in Abandoned() and never
// appears in Started or Active — the utilization metrics reflect only work
// that actually ran.
func TestPoolAbandonedAccounting(t *testing.T) {
	p := NewLimiter(1, 8)
	defer p.Close()
	release := occupy(t, p, 1)

	// Queue tasks whose contexts die while they wait.
	const n = 4
	var wg sync.WaitGroup
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if err := p.Do(ctx, func() { ran.Add(1) }); err != context.DeadlineExceeded {
				t.Errorf("queued-then-abandoned Do = %v, want DeadlineExceeded", err)
			}
		}()
	}
	wg.Wait()
	release()
	waitFor(t, "active", p.Active, 0)

	if got := p.Abandoned(); got != n {
		t.Errorf("Abandoned = %d, want %d", got, n)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d abandoned tasks ran, want 0", got)
	}
	if got := p.Started(); got != 1 {
		t.Errorf("Started = %d, want 1 (only the blocker): abandoned tasks must not count", got)
	}
	if got := p.QueueDepth(); got != 0 {
		t.Errorf("QueueDepth = %d, want 0 after every waiter left", got)
	}
}

// TestLimiterPanicBecomesError: a panicking fn costs its caller an error,
// not the process — the slot is released and the next Do runs. With the
// worker pool this replaced, fn ran on a pool goroutine with no recover, so
// this test took the whole test binary down (and papd with every tenant's
// sessions).
func TestLimiterPanicBecomesError(t *testing.T) {
	p := NewLimiter(1, 1)
	defer p.Close()
	quietLog(t)
	err := p.Do(context.Background(), func() { panic("engine bug") })
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("panicking Do = %v, want ErrPanicked", err)
	}
	if got := p.Active(); got != 0 {
		t.Fatalf("active = %d after a panic, want 0: the slot leaked", got)
	}
	ran := false
	if err := p.Do(context.Background(), func() { ran = true }); err != nil || !ran {
		t.Fatalf("Do after a panic = %v, ran = %v", err, ran)
	}
}

// TestLimiterClose: Close turns later callers away and leaves admitted ones
// alone.
func TestLimiterClose(t *testing.T) {
	p := NewLimiter(1, 1)
	release := occupy(t, p, 1)
	waiter := make(chan error, 1)
	go func() { waiter <- p.Do(context.Background(), func() {}) }()
	waitFor(t, "queue depth", p.QueueDepth, 1)

	p.Close()
	if err := p.Do(context.Background(), func() {}); err != ErrPoolClosed {
		t.Fatalf("Do after Close = %v, want ErrPoolClosed", err)
	}
	release()
	if err := <-waiter; err != nil {
		t.Fatalf("caller admitted before Close = %v, want to run", err)
	}
}

// TestServerStartsNoWorkerGoroutines: admission runs a match on the
// request's goroutine, so the Workers bound costs no goroutines of its own.
func TestServerStartsNoWorkerGoroutines(t *testing.T) {
	count := func(workers int) int {
		before := runtime.NumGoroutine()
		s := New(Config{Workers: workers})
		after := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		return after - before
	}
	// NumGoroutine is process-wide, and goroutines left by earlier tests
	// (idle connections, stopped reapers) may still be exiting: that can
	// only shrink a reading, so one clean comparison out of three settles it.
	var one, many int
	for try := 0; try < 3; try++ {
		if one, many = count(1), count(64); many <= one {
			return
		}
	}
	t.Fatalf("New(Workers: 64) started %d goroutines, New(Workers: 1) %d", many, one)
}

package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Limiter bounds matching work without owning any goroutine: Do runs its
// function on the caller — for papd, the goroutine net/http already gave
// the request — once one of a fixed number of slots is free. At most
// `workers` functions run at a time and at most `queue` callers wait for a
// slot; beyond that Do rejects immediately (ErrQueueFull → HTTP 429
// backpressure) instead of letting latency grow without bound. A caller
// whose context ends while it waits gives up without ever running.
type Limiter struct {
	slots     chan struct{} // counting semaphore: one token per running fn
	queue     chan struct{} // and one per caller waiting for a slot
	started   atomic.Int64
	abandoned atomic.Int64
	closed    atomic.Bool
}

// ErrQueueFull is returned by Do when as many callers as the queue depth
// are already waiting; callers should translate it to a retryable
// backpressure signal (HTTP 429).
var ErrQueueFull = errors.New("server: worker pool queue full")

// ErrPoolClosed is returned by Do after Close.
var ErrPoolClosed = errors.New("server: worker pool closed")

// ErrPanicked is returned (wrapped, with the panic value) by Do when the
// function it ran panicked.
var ErrPanicked = errors.New("server: matching panicked")

// NewLimiter returns a limiter with the given slot count and wait-queue
// depth. workers <= 0 defaults to GOMAXPROCS; queue <= 0 defaults to
// 2×workers.
func NewLimiter(workers, queue int) *Limiter {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	return &Limiter{slots: make(chan struct{}, workers), queue: make(chan struct{}, queue)}
}

// Do waits for a slot, runs fn on the calling goroutine and releases the
// slot. It returns ErrQueueFull without blocking when the wait queue is
// full, ctx.Err() when ctx ends before a slot frees up (fn then never
// runs), ErrPoolClosed after Close, and an error wrapping ErrPanicked when
// fn panics — the panic is logged with its stack and the slot is released
// either way, so one bad input costs one request and not the process. Once
// fn has started Do returns only when fn does: fn is expected to watch ctx
// itself.
func (l *Limiter) Do(ctx context.Context, fn func()) (err error) {
	if l.closed.Load() {
		return ErrPoolClosed
	}
	select {
	case l.slots <- struct{}{}:
	default:
		select {
		case l.queue <- struct{}{}:
		default:
			return ErrQueueFull
		}
		select {
		case l.slots <- struct{}{}:
			<-l.queue
		case <-ctx.Done():
			<-l.queue
			l.abandoned.Add(1)
			return ctx.Err()
		}
	}
	l.started.Add(1)
	defer func() {
		<-l.slots
		if v := recover(); v != nil {
			log.Printf("papd: matching panicked: %v\n%s", v, debug.Stack())
			err = fmt.Errorf("%w: %v", ErrPanicked, v)
		}
	}()
	fn()
	return nil
}

// QueueDepth returns the number of callers currently waiting for a slot.
func (l *Limiter) QueueDepth() int { return len(l.queue) }

// QueueCap returns the wait-queue capacity.
func (l *Limiter) QueueCap() int { return cap(l.queue) }

// Active returns the number of functions currently running.
func (l *Limiter) Active() int { return len(l.slots) }

// Workers returns the slot count.
func (l *Limiter) Workers() int { return cap(l.slots) }

// Started returns the cumulative number of functions that began running.
func (l *Limiter) Started() int64 { return l.started.Load() }

// Abandoned returns the cumulative number of callers whose context ended
// while they waited for a slot; their functions never ran and never
// appear in Started or Active.
func (l *Limiter) Abandoned() int64 { return l.abandoned.Load() }

// Close makes every later Do fail with ErrPoolClosed. Callers already
// admitted or waiting are not disturbed: they run on goroutines the
// limiter does not own, and whoever owns those (http.Server.Shutdown for
// papd) waits for them.
func (l *Limiter) Close() { l.closed.Store(true) }

// Package server implements papd, the Parallel Automata Processor daemon:
// a long-running, stdlib-only HTTP service that hosts a registry of
// compiled automata and matches payloads against them — sequentially, in
// parallel via the paper's enumerative segment-parallel algorithm
// (pap.MatchParallel), or incrementally over persistent streaming
// sessions (pap.Stream).
//
// Automata are compiled once at registration and shared immutably by
// every request. A match runs on the goroutine net/http gave its request,
// behind an admission limiter sized to GOMAXPROCS and under a per-request
// deadline; when as many requests as the queue depth are already waiting
// the server sheds load with 429 instead of queueing unboundedly. The
// service exposes Prometheus text-format metrics on /metrics,
// liveness/readiness probes on /healthz and /readyz, and drains
// in-flight matches on shutdown.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// Config controls a papd server. Zero values select sensible defaults.
type Config struct {
	// Addr is the listen address (default ":8461").
	Addr string
	// Workers bounds concurrent matching work (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the requests waiting for one of the Workers slots;
	// beyond it a request gets 429 (default 4×Workers).
	QueueDepth int
	// MatchTimeout bounds one match or stream write, queueing included
	// (default 30s).
	MatchTimeout time.Duration
	// MaxMatchDuration, when > 0, caps the execution deadline of every
	// match and stream write — including ones that ask for a longer
	// per-request timeout_ms — so a single adversarial request (a
	// pathological enumeration input, say) can never hold a slot
	// longer than the operator allows. 0 leaves MatchTimeout as the only
	// bound.
	MaxMatchDuration time.Duration
	// MaxBodyBytes bounds request payloads (default 16 MiB).
	MaxBodyBytes int64
	// StreamIdleTimeout expires streaming sessions with no writes for this
	// long (default 10m; negative disables expiry).
	StreamIdleTimeout time.Duration
	// MaxAutomata bounds the registry (default 1024).
	MaxAutomata int
	// MaxStreams bounds live streaming sessions (default 4096).
	MaxStreams int

	// Peers lists the advertised addresses of the other replicas in a
	// sharded deployment; empty disables the shard router. Each ruleset
	// name is owned by one replica on a consistent-hash ring over
	// AdvertiseAddr+Peers, and requests for rulesets owned elsewhere are
	// forwarded there (with local fallback when the owner is down).
	Peers []string
	// AdvertiseAddr is this replica's own address as its peers reach it
	// (default Addr). It must appear in every peer's ring under exactly
	// this spelling for the replicas to agree on ownership.
	AdvertiseAddr string
	// PeerFailThreshold ejects a peer from routing after this many
	// consecutive forward failures (default 3).
	PeerFailThreshold int
	// PeerCooldown is how long an ejected peer stays out of routing
	// before being retried (default 10s).
	PeerCooldown time.Duration

	// BatchWindow coalesces small sequential match requests sharing a
	// ruleset version: requests arriving within the window are admitted as
	// one unit, served in turn and demuxed. 0 disables coalescing.
	BatchWindow time.Duration
	// BatchMaxSize flushes a batch early when it reaches this many
	// requests (default 64).
	BatchMaxSize int
	// BatchMaxBytes is the largest payload eligible for coalescing
	// (default 4096); larger payloads always dispatch alone.
	BatchMaxBytes int

	// TenantRPS grants each tenant (X-API-Key header, or "anonymous")
	// this many match/stream-write requests per second, answering 429
	// with Retry-After beyond it. 0 disables quotas.
	TenantRPS float64
	// TenantBurst is the per-tenant burst allowance (default
	// max(TenantRPS, 1)).
	TenantBurst float64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8461"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MatchTimeout <= 0 {
		c.MatchTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.StreamIdleTimeout == 0 {
		c.StreamIdleTimeout = 10 * time.Minute
	} else if c.StreamIdleTimeout < 0 {
		c.StreamIdleTimeout = 0 // disabled
	}
	if c.AdvertiseAddr == "" {
		c.AdvertiseAddr = c.Addr
	}
	if c.BatchMaxSize <= 0 {
		c.BatchMaxSize = 64
	}
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 4096
	}
	return c
}

// Server is one papd instance. Create with New, serve with ListenAndServe
// (or mount Handler on your own listener), stop with Shutdown.
type Server struct {
	cfg       Config
	reg       *Registry
	limiter   *Limiter
	sessions  *SessionManager
	metrics   *Metrics
	router    *Router    // nil unless Peers configured
	coalescer *Coalescer // nil unless BatchWindow > 0
	quotas    *Quotas    // nil unless TenantRPS > 0
	mux       *http.ServeMux
	httpSrv   *http.Server
	ready     atomic.Bool
	started   time.Time

	// Pre-created instruments on hot paths.
	latency          map[string]*Histogram
	poolRejected     *Counter
	streamBytes      *Counter
	cancellations    map[string]*Counter
	speedupHist      *Histogram
	engineSteps      *Counter
	prefilterSkipped *Counter
	baselineSkipped  *Counter
	scoredMatches    *Counter
}

// New assembles a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(cfg.MaxAutomata),
		limiter:  NewLimiter(cfg.Workers, cfg.QueueDepth),
		sessions: NewSessionManager(cfg.MaxStreams, cfg.StreamIdleTimeout),
		metrics:  NewMetrics(),
		router:   NewRouter(cfg.AdvertiseAddr, cfg.Peers, cfg.PeerFailThreshold, cfg.PeerCooldown),
		quotas:   NewQuotas(cfg.TenantRPS, cfg.TenantBurst),
		mux:      http.NewServeMux(),
		latency:  make(map[string]*Histogram),
		started:  time.Now(),
	}
	s.coalescer = NewCoalescer(s.limiter, cfg.BatchWindow, cfg.BatchMaxSize, cfg.MatchTimeout)

	m := s.metrics
	s.poolRejected = m.Counter("papd_worker_pool_rejected_total",
		"Requests shed with 429 because the worker-pool queue was full.", "")
	s.streamBytes = m.Counter("papd_stream_bytes_total",
		"Bytes consumed by streaming sessions.", "")
	s.speedupHist = m.Histogram("papd_parallel_speedup",
		"Modelled AP speedup of parallel matches over the sequential AP baseline.",
		"", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	s.engineSteps = m.Counter("papd_engine_steps_total",
		"Input symbols stepped through execution engines.", "")
	s.prefilterSkipped = m.Counter("papd_prefilter_skipped_bytes_total",
		"Input bytes proven inert and never stepped outside the baseline skip (in parallel matches, dead enumeration flows' rounds).", "")
	s.baselineSkipped = m.Counter("papd_baseline_skipped_bytes_total",
		"Input bytes the exact baseline-skip fast path scanned past instead of stepping.", "")
	s.scoredMatches = m.Counter("papd_scored_matches_total",
		"Matches returned with per-transition scores attached (scored matches and stream writes).", "")
	s.cancellations = make(map[string]*Counter)
	for _, reason := range []string{"deadline", "client_gone"} {
		s.cancellations[reason] = m.Counter("papd_match_cancellations_total",
			"Matches and stream writes cancelled before completion, by reason.",
			fmt.Sprintf("reason=%q", reason))
	}
	m.GaugeFunc("papd_worker_pool_workers", "Matching tasks that may execute at once.", "",
		func() float64 { return float64(s.limiter.Workers()) })
	m.GaugeFunc("papd_worker_pool_active", "Matching tasks currently executing.", "",
		func() float64 { return float64(s.limiter.Active()) })
	m.GaugeFunc("papd_worker_pool_queue_depth", "Matching tasks waiting in the queue.", "",
		func() float64 { return float64(s.limiter.QueueDepth()) })
	m.GaugeFunc("papd_worker_pool_queue_capacity", "Capacity of the matching queue.", "",
		func() float64 { return float64(s.limiter.QueueCap()) })
	m.GaugeFunc("papd_streams_active", "Live streaming sessions.", "",
		func() float64 { return float64(s.sessions.Len()) })
	m.GaugeFunc("papd_automata_registered", "Automata in the registry.", "",
		func() float64 { return float64(s.reg.Len()) })
	m.GaugeFunc("papd_uptime_seconds", "Seconds since the server started.", "",
		func() float64 { return time.Since(s.started).Seconds() })
	s.sessions.SetExpiredCounter(m.Counter("papd_streams_expired_total",
		"Streaming sessions expired for idleness.", ""))
	m.GaugeFunc("papd_worker_pool_abandoned",
		"Cumulative tasks abandoned while queued; abandoned tasks never run.", "",
		func() float64 { return float64(s.limiter.Abandoned()) })

	// Every installed ruleset version (registration or hot reload) gets a
	// papd_ruleset_version gauge; it reads the live registry, so a delete
	// shows 0 and a reload shows the bumped version immediately. Its
	// matches are counted on a series the name's versions share, kept on
	// the entry so the request path neither formats a label nor looks the
	// series up.
	s.reg.SetInstallHook(func(e *Entry) {
		name := e.Name
		label := fmt.Sprintf("automaton=%q", EscapeLabelValue(name))
		m.GaugeFunc("papd_ruleset_version",
			"Currently served version of each registered ruleset (0 = deleted).",
			label, func() float64 { return float64(s.reg.Version(name)) })
		e.matchesTotal = m.Counter("papd_automaton_matches_total",
			"Matches reported, by automaton.", label)
	})

	if s.coalescer != nil {
		s.coalescer.batchesTotal = m.Counter("papd_batches_total",
			"Coalesced match batches flushed to the worker pool.", "")
		s.coalescer.requestsTotal = m.Counter("papd_batched_requests_total",
			"Match requests served through coalesced batches.", "")
		s.coalescer.sizeHist = m.Histogram("papd_batch_size",
			"Requests per coalesced batch.", "",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	}

	if s.router != nil {
		fallback := m.Counter("papd_router_local_fallback_total",
			"Requests served locally because their owning replica was ejected.", "")
		s.router.onForward = func(peer string, ok bool) {
			name := "papd_router_forwarded_total"
			help := "Requests forwarded to their owning replica, by peer."
			if !ok {
				name = "papd_router_forward_errors_total"
				help = "Forwards that failed in transport, by peer."
			}
			m.Counter(name, help, fmt.Sprintf("peer=%q", EscapeLabelValue(peer))).Inc()
		}
		s.router.onFallback = func() { fallback.Inc() }
		s.router.onEject = func(peer string) {
			m.Counter("papd_router_peer_ejections_total",
				"Peers ejected from routing after consecutive forward failures.",
				fmt.Sprintf("peer=%q", EscapeLabelValue(peer))).Inc()
		}
		m.GaugeFunc("papd_router_peers_ejected",
			"Peers currently ejected from routing.", "",
			func() float64 { return float64(s.router.EjectedPeers()) })
		m.GaugeFunc("papd_router_peers",
			"Peer replicas in the shard ring (excluding self).", "",
			func() float64 { return float64(len(s.cfg.Peers)) })
	}

	s.routes()
	s.ready.Store(true)
	return s
}

// Handler returns the server's root handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the metrics registry (for preloading hooks and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the automata registry (for preloading rulesets).
func (s *Server) Registry() *Registry { return s.reg }

// ListenAndServe serves until Shutdown or listener failure.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown or listener failure.
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// Shutdown drains the server: readiness flips to draining (load balancers
// stop sending), the HTTP server stops accepting and waits for in-flight
// requests — every admitted match among them — up to ctx, the limiter
// turns away whatever still arrives, and the session reaper stops.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.limiter.Close()
	s.sessions.Stop()
	return err
}

// countCancellation increments papd_match_cancellations_total for the
// given reason ("deadline" or "client_gone"). Both series are registered
// at startup so dashboards see explicit zeros before the first abort.
func (s *Server) countCancellation(reason string) {
	if c, ok := s.cancellations[reason]; ok {
		c.Inc()
	}
}

// instrument wraps h with request counting and latency observation under
// the given handler label.
func (s *Server) instrument(handler string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Histogram("papd_http_request_seconds",
		"HTTP request latency in seconds.",
		fmt.Sprintf("handler=%q", handler), DefaultLatencyBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.Observe(time.Since(start).Seconds())
		s.metrics.Counter("papd_http_requests_total",
			"HTTP requests by handler and status code.",
			fmt.Sprintf("handler=%q,code=\"%d\"", handler, sw.code)).Inc()
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

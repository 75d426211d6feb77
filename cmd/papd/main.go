// Command papd runs the Parallel Automata Processor matching daemon: an
// HTTP service hosting compiled automata, matching payloads sequentially
// or with the paper's segment-parallel algorithm, and feeding persistent
// streaming sessions. See docs/SERVER.md for the API.
//
// Usage:
//
//	papd [-addr :8461] [-workers N] [-queue N] [-timeout 30s]
//	     [-max-match-duration 0] [-stream-idle 10m] [-max-body 16777216]
//	     [-preload name=patterns.txt]...
//	     [-peers host1:8461,host2:8461] [-advertise host0:8461]
//	     [-batch-window 0] [-batch-max 64] [-batch-max-bytes 4096]
//	     [-tenant-rps 0] [-tenant-burst 0]
//
// -peers enables the shard router: each ruleset name is owned by one
// replica on a consistent-hash ring over advertise+peers, and requests
// for rulesets owned elsewhere are forwarded there (with local fallback
// when the owner is down). -batch-window enables request coalescing for
// small match payloads; -tenant-rps enforces per-tenant (X-API-Key)
// token-bucket quotas with 429 + Retry-After beyond the budget.
//
// Each -preload flag registers a regex ruleset at startup from a file of
// one pattern per line (blank lines and #-comment lines skipped).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pap/internal/server"
)

type preloadFlag struct {
	specs []string
}

func (p *preloadFlag) String() string { return strings.Join(p.specs, ",") }

func (p *preloadFlag) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=file, got %q", v)
	}
	p.specs = append(p.specs, v)
	return nil
}

// readPatterns parses a pattern file: one pattern per line, blank lines
// and lines starting with # skipped.
func readPatterns(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

// splitPeers parses the -peers flag: a comma-separated address list,
// tolerating whitespace and empty elements.
func splitPeers(list string) []string {
	var peers []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// preload registers every name=file spec into the server's registry.
func preload(s *server.Server, specs []string) error {
	for _, spec := range specs {
		name, file, _ := strings.Cut(spec, "=")
		patterns, err := readPatterns(file)
		if err != nil {
			return fmt.Errorf("preload %s: %w", spec, err)
		}
		e, err := s.Registry().Register(name, "regex", patterns, 0)
		if err != nil {
			return fmt.Errorf("preload %s: %w", spec, err)
		}
		st := e.Automaton.Stats()
		log.Printf("preloaded %q: %d patterns, %d states", name, len(patterns), st.States)
	}
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8461", "listen address")
		workers     = flag.Int("workers", 0, "matches running at once (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "matches waiting beyond -workers before 429 (0 = 4x workers)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request match timeout")
		maxMatch    = flag.Duration("max-match-duration", 0, "hard cap on match execution time, overriding longer per-request timeout_ms values (0 = no cap beyond -timeout)")
		streamIdle  = flag.Duration("stream-idle", 10*time.Minute, "expire streaming sessions idle this long (<0 disables)")
		maxBody     = flag.Int64("max-body", 16<<20, "maximum request payload bytes")
		drainWait   = flag.Duration("drain", 15*time.Second, "shutdown drain deadline")
		peerList    = flag.String("peers", "", "comma-separated advertised addresses of the other replicas (enables the shard router)")
		advertise   = flag.String("advertise", "", "this replica's address as peers reach it (default -addr)")
		peerFails   = flag.Int("peer-fail-threshold", 3, "consecutive forward failures before a peer is ejected from routing")
		peerCool    = flag.Duration("peer-cooldown", 10*time.Second, "how long an ejected peer stays out of routing")
		batchWindow = flag.Duration("batch-window", 0, "coalesce small match requests arriving within this window into one admission (0 disables)")
		batchMax    = flag.Int("batch-max", 64, "flush a coalesced batch early at this many requests")
		batchBytes  = flag.Int("batch-max-bytes", 4096, "largest payload eligible for coalescing")
		tenantRPS   = flag.Float64("tenant-rps", 0, "per-tenant (X-API-Key) match and stream-write requests/second, 429 beyond (0 disables)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant burst allowance (0 = max(tenant-rps, 1))")
		preloads    preloadFlag
	)
	flag.Var(&preloads, "preload", "register a ruleset at startup: name=patterns.txt (repeatable)")
	flag.Parse()

	s := server.New(server.Config{
		Addr:              *addr,
		Workers:           *workers,
		QueueDepth:        *queue,
		MatchTimeout:      *timeout,
		MaxMatchDuration:  *maxMatch,
		StreamIdleTimeout: *streamIdle,
		MaxBodyBytes:      *maxBody,
		Peers:             splitPeers(*peerList),
		AdvertiseAddr:     *advertise,
		PeerFailThreshold: *peerFails,
		PeerCooldown:      *peerCool,
		BatchWindow:       *batchWindow,
		BatchMaxSize:      *batchMax,
		BatchMaxBytes:     *batchBytes,
		TenantRPS:         *tenantRPS,
		TenantBurst:       *tenantBurst,
	})
	if err := preload(s, preloads.specs); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()
	log.Printf("papd listening on %s", *addr)

	select {
	case err := <-errc:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("signal received, draining for up to %s", *drainWait)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := s.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Print("papd stopped")
}

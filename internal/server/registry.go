package server

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pap"
)

// Registry holds the compiled automata papd serves, versioned per name.
// Compilation happens once, at registration; every match request and
// streaming session then shares the same immutable *pap.Automaton (the
// package-level concurrency contract makes this safe), so serving cost
// is pure matching cost.
//
// Registering a name that already exists is a zero-downtime hot reload:
// the new patterns compile off-lock, then atomically replace the old
// entry as version v+1. Work that already resolved the old *Entry — an
// in-flight match, a streaming session — keeps its pinned, immutable
// automaton; only new lookups see the new version. Versions are
// monotone per name for the life of the registry, surviving deletes, so
// a dashboard watching papd_ruleset_version never sees it regress.
type Registry struct {
	mu      sync.RWMutex
	autos   map[string]*Entry
	pending map[string]bool // names reserved by an in-flight registration
	lastVer map[string]int  // highest version ever installed per name
	max     int

	// onInstall, when set, runs on each compiled entry just before it is
	// installed (outside r.mu, the entry not yet visible to any reader) —
	// the server uses it to register the per-ruleset metrics for preloaded
	// and API-registered rulesets alike.
	onInstall func(*Entry)
}

// Entry is one registered ruleset version with its serving statistics.
type Entry struct {
	Name      string
	Version   int    // 1 for a fresh name, v+1 on each hot reload
	Kind      string // "regex", "hamming" or "levenshtein"
	Patterns  int
	Distance  int // for hamming/levenshtein
	Created   time.Time
	Automaton *pap.Automaton

	// Serving counters, updated atomically by handlers.
	Requests atomic.Int64 // match + stream-write requests served
	Matches  atomic.Int64 // total matches reported

	// matchesTotal is the name's papd_automaton_matches_total series,
	// shared by every version of the name; the server's install hook sets
	// it.
	matchesTotal *Counter
}

// Registration errors.
var (
	ErrExists      = errors.New("server: registration for this name already in flight")
	ErrNotFound    = errors.New("server: automaton not found")
	ErrTooMany     = errors.New("server: automata limit reached")
	ErrBadName     = errors.New(`server: name must match [A-Za-z0-9_.:-]{1,64}`)
	ErrNoPatterns  = errors.New("server: at least one pattern required")
	ErrUnknownKind = errors.New(`server: kind must be "regex", "hamming" or "levenshtein"`)
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.:-]{1,64}$`)

// compileHook, when non-nil, observes every compile the registry pays
// for. Tests use it to prove that rejected registrations never compile.
var compileHook func(name string)

// NewRegistry returns an empty registry holding at most max automata
// (max <= 0 means 1024).
func NewRegistry(max int) *Registry {
	if max <= 0 {
		max = 1024
	}
	return &Registry{
		autos:   make(map[string]*Entry),
		pending: make(map[string]bool),
		lastVer: make(map[string]int),
		max:     max,
	}
}

// SetInstallHook wires a callback invoked on every compiled entry
// (registration or hot reload) just before it is installed, outside the
// registry lock.
func (r *Registry) SetInstallHook(fn func(*Entry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onInstall = fn
}

// reserve claims name under the lock before any compile work: duplicate
// concurrent registrations fail fast with ErrExists and the automata
// limit is enforced against installed + reserved names, so a losing
// caller never pays a compile. The returned release must be called
// exactly once, with the compiled entry to install or nil to abort.
func (r *Registry) reserve(name string) (func(e *Entry), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending[name] {
		return nil, ErrExists
	}
	if _, reload := r.autos[name]; !reload {
		// Only genuinely new names consume a slot; hot reloads replace.
		if len(r.autos)+len(r.pending) >= r.max {
			return nil, ErrTooMany
		}
	}
	r.pending[name] = true
	hook := r.onInstall
	return func(e *Entry) {
		if e != nil && hook != nil {
			hook(e)
		}
		r.mu.Lock()
		delete(r.pending, name)
		if e != nil {
			e.Version = r.lastVer[name] + 1
			r.lastVer[name] = e.Version
			r.autos[name] = e
		}
		r.mu.Unlock()
	}, nil
}

// Register compiles patterns under the given kind and installs the
// result. kind "" defaults to "regex"; distance is only meaningful for
// "hamming" and "levenshtein". Names are restricted so they can be
// embedded in metric labels without escaping surprises.
//
// Registering an existing name is a hot reload: the entry is replaced
// with version v+1 once compilation succeeds, while everything pinned to
// the old entry keeps serving it. The name is reserved before the
// compile starts, so of several concurrent registrations for one name
// exactly one compiles and installs; the rest fail immediately with
// ErrExists.
func (r *Registry) Register(name, kind string, patterns []string, distance int) (*Entry, error) {
	if !nameRE.MatchString(name) {
		return nil, ErrBadName
	}
	if len(patterns) == 0 {
		return nil, ErrNoPatterns
	}
	if kind == "" {
		kind = "regex"
	}
	switch kind {
	case "regex", "hamming", "levenshtein":
	default:
		return nil, ErrUnknownKind
	}

	install, err := r.reserve(name)
	if err != nil {
		return nil, err
	}

	// Compile outside the lock: reads, lists and unrelated registrations
	// proceed while this (potentially large) ruleset builds.
	if compileHook != nil {
		compileHook(name)
	}
	var a *pap.Automaton
	switch kind {
	case "regex":
		a, err = pap.Compile(name, patterns)
	case "hamming":
		a, err = pap.Hamming(name, patterns, distance)
	case "levenshtein":
		a, err = pap.Levenshtein(name, patterns, distance)
	}
	if err != nil {
		install(nil)
		return nil, fmt.Errorf("server: compile %q: %w", name, err)
	}
	e := &Entry{
		Name:      name,
		Kind:      kind,
		Patterns:  len(patterns),
		Distance:  distance,
		Created:   time.Now().UTC(),
		Automaton: a,
	}
	install(e)
	return e, nil
}

// Get returns the current entry for name, or ErrNotFound.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.autos[name]
	if !ok {
		return nil, ErrNotFound
	}
	return e, nil
}

// Version returns the currently served version of name, or 0 when the
// name is not registered (papd_ruleset_version reads this).
func (r *Registry) Version(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.autos[name]; ok {
		return e.Version
	}
	return 0
}

// Delete removes name from the registry. Streaming sessions already bound
// to the automaton keep working — the compiled automaton is immutable and
// simply becomes unreachable for new work. A later re-registration of the
// name continues the version sequence rather than restarting it.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.autos[name]; !ok {
		return ErrNotFound
	}
	delete(r.autos, name)
	return nil
}

// List returns all current entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.autos))
	for _, e := range r.autos {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered automata.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.autos)
}

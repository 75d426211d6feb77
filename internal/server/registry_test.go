package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// withCompileHook installs fn as the registry compile observer for the
// duration of the test. Tests using it must not run in parallel.
func withCompileHook(t *testing.T, fn func(name string)) {
	t.Helper()
	prev := compileHook
	compileHook = fn
	t.Cleanup(func() { compileHook = prev })
}

// TestRegistryConcurrentSameName proves the reserve seam: of many
// concurrent registrations for one name, exactly one pays a compile and
// installs; the rest fail fast with ErrExists while the winner is still
// compiling.
func TestRegistryConcurrentSameName(t *testing.T) {
	r := NewRegistry(16)

	var compiles atomic.Int64
	entered := make(chan struct{}) // winner reached its compile
	release := make(chan struct{}) // let the winner finish
	withCompileHook(t, func(name string) {
		compiles.Add(1)
		entered <- struct{}{}
		<-release
	})

	winnerErr := make(chan error, 1)
	go func() {
		_, err := r.Register("shared", "regex", []string{"abc"}, 0)
		winnerErr <- err
	}()
	<-entered // the name is now reserved and the compile is in flight

	const losers = 8
	var wg sync.WaitGroup
	errs := make([]error, losers)
	for i := 0; i < losers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Register("shared", "regex", []string{"abc"}, 0)
		}(i)
	}
	wg.Wait() // losers return while the winner still holds the reservation

	for i, err := range errs {
		if !errors.Is(err, ErrExists) {
			t.Errorf("loser %d: err = %v, want ErrExists", i, err)
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Errorf("compiles while losers ran = %d, want 1 (losers must not compile)", got)
	}

	close(release)
	if err := <-winnerErr; err != nil {
		t.Fatalf("winner Register: %v", err)
	}
	e, err := r.Get("shared")
	if err != nil || e.Version != 1 {
		t.Fatalf("Get after winner install: entry=%+v err=%v, want version 1", e, err)
	}
}

// TestRegistryLimitCountsPendingWithoutCompile proves the limit is
// enforced against installed + reserved names before any compile work.
func TestRegistryLimitCountsPendingWithoutCompile(t *testing.T) {
	r := NewRegistry(2)
	if _, err := r.Register("a", "regex", []string{"x"}, 0); err != nil {
		t.Fatal(err)
	}

	var compiles atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	withCompileHook(t, func(name string) {
		compiles.Add(1)
		if name == "b" {
			entered <- struct{}{}
			<-release
		}
	})

	done := make(chan error, 1)
	go func() {
		_, err := r.Register("b", "regex", []string{"y"}, 0)
		done <- err
	}()
	<-entered // "b" is reserved but not yet installed: registry is full

	before := compiles.Load()
	if _, err := r.Register("c", "regex", []string{"z"}, 0); !errors.Is(err, ErrTooMany) {
		t.Fatalf("Register over limit: err = %v, want ErrTooMany", err)
	}
	if got := compiles.Load(); got != before {
		t.Errorf("rejected registration compiled (%d -> %d compiles)", before, got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Register b: %v", err)
	}
	// A hot reload of an installed name must still work at the limit: it
	// replaces rather than consuming a slot.
	if e, err := r.Register("a", "regex", []string{"xx"}, 0); err != nil || e.Version != 2 {
		t.Fatalf("reload at limit: entry=%+v err=%v, want version 2", e, err)
	}
}

// TestRegistryHotReloadPinsOldEntry proves a reload installs v+1 while
// work holding the old *Entry keeps its compiled automaton.
func TestRegistryHotReloadPinsOldEntry(t *testing.T) {
	r := NewRegistry(4)
	v1, err := r.Register("rs", "regex", []string{"alpha"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Fatalf("fresh version = %d, want 1", v1.Version)
	}

	v2, err := r.Register("rs", "regex", []string{"bravo"}, 0)
	if err != nil {
		t.Fatalf("hot reload: %v", err)
	}
	if v2.Version != 2 {
		t.Fatalf("reload version = %d, want 2", v2.Version)
	}
	cur, err := r.Get("rs")
	if err != nil || cur != v2 {
		t.Fatalf("Get after reload returned %p, want new entry %p (err %v)", cur, v2, err)
	}
	if got := r.Version("rs"); got != 2 {
		t.Fatalf("Version = %d, want 2", got)
	}

	// The pinned v1 automaton still matches its own patterns, and the two
	// versions are genuinely different compiled artifacts.
	if ms := v1.Automaton.Match([]byte("alpha")); len(ms) != 1 {
		t.Errorf("pinned v1 match(alpha) = %d matches, want 1", len(ms))
	}
	if ms := v1.Automaton.Match([]byte("bravo")); len(ms) != 0 {
		t.Errorf("pinned v1 match(bravo) = %d matches, want 0", len(ms))
	}
	if ms := v2.Automaton.Match([]byte("bravo")); len(ms) != 1 {
		t.Errorf("v2 match(bravo) = %d matches, want 1", len(ms))
	}
}

// TestRegistryVersionsSurviveDelete proves version numbers are monotone
// per name for the registry's lifetime, so papd_ruleset_version never
// regresses across a delete + re-register.
func TestRegistryVersionsSurviveDelete(t *testing.T) {
	r := NewRegistry(4)
	if _, err := r.Register("rs", "regex", []string{"a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("rs", "regex", []string{"b"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("rs"); err != nil {
		t.Fatal(err)
	}
	if got := r.Version("rs"); got != 0 {
		t.Fatalf("Version after delete = %d, want 0", got)
	}
	e, err := r.Register("rs", "regex", []string{"c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 3 {
		t.Fatalf("version after delete + re-register = %d, want 3 (monotone)", e.Version)
	}
}

// TestRegistryFailedCompileReleasesReservation proves a compile error
// frees the name and its slot for the next caller.
func TestRegistryFailedCompileReleasesReservation(t *testing.T) {
	r := NewRegistry(1)
	if _, err := r.Register("bad", "regex", []string{"("}, 0); err == nil {
		t.Fatal("Register with invalid pattern succeeded")
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("Len after failed compile = %d, want 0", got)
	}
	// The slot and the name are both free again.
	e, err := r.Register("bad", "regex", []string{"ok"}, 0)
	if err != nil {
		t.Fatalf("Register after failed compile: %v", err)
	}
	if e.Version != 1 {
		t.Fatalf("version = %d, want 1 (failed compiles don't burn versions)", e.Version)
	}
}

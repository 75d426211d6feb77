package server

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testEntry(t *testing.T) *Entry {
	t.Helper()
	r := NewRegistry(0)
	e, err := r.Register("t", "regex", []string{"needle"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSessionWriteAcrossChunks(t *testing.T) {
	m := NewSessionManager(0, 0)
	defer m.Stop()
	s, err := m.Create(testEntry(t), false)
	if err != nil {
		t.Fatal(err)
	}
	ms, off, _, err := s.Write([]byte("xxnee"))
	if err != nil || len(ms) != 0 || off != 5 {
		t.Fatalf("first write: ms=%v off=%d err=%v", ms, off, err)
	}
	ms, off, _, err = s.Write([]byte("dlexx"))
	if err != nil || off != 10 {
		t.Fatalf("second write: off=%d err=%v", off, err)
	}
	if len(ms) != 1 || ms[0].Offset != 7 {
		t.Fatalf("split match = %+v, want one ending at 7", ms)
	}
	info := s.Info()
	if info.Writes != 2 || info.Matches != 1 || info.Offset != 10 {
		t.Fatalf("info = %+v", info)
	}
}

// TestSessionTimestampsUTC is the regression for Create storing Created in
// UTC but lastUsed in the local zone, which leaked two different zones into
// one SessionInfo JSON object.
func TestSessionTimestampsUTC(t *testing.T) {
	m := NewSessionManager(0, 0)
	defer m.Stop()
	s, err := m.Create(testEntry(t), false)
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.Created.Location() != time.UTC {
		t.Fatalf("Created zone = %v, want UTC", info.Created.Location())
	}
	if info.LastUsed.Location() != time.UTC {
		t.Fatalf("LastUsed zone = %v, want UTC", info.LastUsed.Location())
	}
	if info.Created.Location() != info.LastUsed.Location() {
		t.Fatalf("zones differ: created=%v last_used=%v",
			info.Created.Location(), info.LastUsed.Location())
	}
	if _, _, _, err := s.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := s.Info().LastUsed.Location(); got != time.UTC {
		t.Fatalf("LastUsed zone after Write = %v, want UTC", got)
	}
}

func TestSessionLimit(t *testing.T) {
	m := NewSessionManager(2, 0)
	defer m.Stop()
	e := testEntry(t)
	if _, err := m.Create(e, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(e, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(e, false); err != ErrTooManySessions {
		t.Fatalf("expected ErrTooManySessions, got %v", err)
	}
}

func TestSessionCloseAndGet(t *testing.T) {
	m := NewSessionManager(0, 0)
	defer m.Stop()
	s, _ := m.Create(testEntry(t), false)
	if _, err := m.Get(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(s.ID); err != ErrSessionNotFound {
		t.Fatalf("expected ErrSessionNotFound, got %v", err)
	}
	if _, _, _, err := s.Write([]byte("x")); err != ErrSessionNotFound {
		t.Fatalf("write after close: %v", err)
	}
	if err := m.Close(s.ID); err != ErrSessionNotFound {
		t.Fatalf("double close: %v", err)
	}
}

func TestSessionIdleExpiry(t *testing.T) {
	m := NewSessionManager(0, 40*time.Millisecond)
	defer m.Stop()
	c := &Counter{}
	m.SetExpiredCounter(c)
	s, _ := m.Create(testEntry(t), false)
	deadline := time.After(2 * time.Second)
	for {
		if _, err := m.Get(s.ID); err == ErrSessionNotFound {
			break
		}
		select {
		case <-deadline:
			t.Fatal("session never expired")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if c.Value() != 1 {
		t.Fatalf("expired counter = %d, want 1", c.Value())
	}
	if m.Len() != 0 {
		t.Fatalf("sessions remaining: %d", m.Len())
	}
}

// TestReapDoesNotBlockManager is the regression for the reaper's
// head-of-line blocking: the old reap held the manager-wide m.mu while
// acquiring each session's s.mu, and Session.WriteContext holds s.mu for
// the full duration of a write — so one slow streaming write stalled
// every Get/Create/List server-wide. The fixed reaper snapshots under
// m.mu, closes under each s.mu only, then deletes under m.mu again; a
// reap stuck behind one session's write lock must not delay an
// unrelated Get beyond a small bound.
func TestReapDoesNotBlockManager(t *testing.T) {
	m := NewSessionManager(0, 0) // no background reaper; we drive reapOnce
	defer m.Stop()
	e := testEntry(t)
	slow, err := m.Create(e, false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Create(e, false)
	if err != nil {
		t.Fatal(err)
	}

	// Make the slow session idle-expired, then hold its mutex — exactly
	// the lock WriteContext holds while a long write is in flight.
	slow.mu.Lock()
	slow.lastUsed = time.Now().Add(-time.Hour)
	reaping := make(chan struct{})
	reaped := make(chan struct{})
	go func() {
		close(reaping)
		m.reapOnce(time.Now().Add(-time.Minute))
		close(reaped)
	}()
	<-reaping
	time.Sleep(10 * time.Millisecond) // let the reaper reach slow's s.mu

	// An unrelated Get must answer promptly even though the reaper is
	// parked on the write-locked session.
	got := make(chan error, 1)
	go func() {
		_, err := m.Get(other.ID)
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Get(other) = %v", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Get blocked behind the reaper: head-of-line blocking is back")
	}

	// Creates must be just as unaffected. (List would block here — not on
	// the manager lock, but on snapshotting the write-locked session
	// itself, which is inherent to Info and not head-of-line blocking.)
	if _, err := m.Create(e, false); err != nil {
		t.Fatalf("Create during stuck reap: %v", err)
	}

	// Release the "write"; the reap completes and expires only slow.
	slow.mu.Unlock()
	select {
	case <-reaped:
	case <-time.After(2 * time.Second):
		t.Fatal("reap never finished after the write lock was released")
	}
	if _, err := m.Get(slow.ID); err != ErrSessionNotFound {
		t.Fatalf("expired session still live: %v", err)
	}
	if _, err := m.Get(other.ID); err != nil {
		t.Fatalf("fresh session reaped: %v", err)
	}
}

// TestReapDuringLongWrite hammers sessions with concurrent writes, Gets
// and reap passes under -race: a write landing between the reaper's
// snapshot and close phases must refresh lastUsed and survive, and
// nothing may deadlock or corrupt.
func TestReapDuringLongWrite(t *testing.T) {
	m := NewSessionManager(0, 0)
	defer m.Stop()
	e := testEntry(t)
	const sessions = 8
	ss := make([]*Session, sessions)
	for i := range ss {
		s, err := m.Create(e, false)
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, s := range ss {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			chunk := []byte("xxneedlexx")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, _, err := s.Write(chunk)
				if errors.Is(err, ErrSessionNotFound) {
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cutoff := time.Now().Add(-time.Second) // before every session's birth
		for i := 0; i < 50; i++ {
			// No session can be idle since before its own creation, so
			// every pass must leave all of them alive.
			m.reapOnce(cutoff)
			for _, s := range ss {
				m.Get(s.ID) //nolint:errcheck
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := m.Len(); n != sessions {
		t.Fatalf("active sessions reaped: %d live, want %d", n, sessions)
	}
}

// TestSessionCreateReservesSlot is the regression for Create building
// the stream before the max check: a Create doomed to
// ErrTooManySessions must fail before paying stream construction, and
// concurrent Creates racing for the last slot can never overshoot max.
func TestSessionCreateReservesSlot(t *testing.T) {
	e := testEntry(t)

	m := NewSessionManager(2, 0)
	defer m.Stop()
	for i := 0; i < 2; i++ {
		if _, err := m.Create(e, false); err != nil {
			t.Fatal(err)
		}
	}
	builds := 0
	streamBuildHook = func() { builds++ }
	defer func() { streamBuildHook = nil }()
	if _, err := m.Create(e, false); err != ErrTooManySessions {
		t.Fatalf("over-limit Create = %v, want ErrTooManySessions", err)
	}
	if builds != 0 {
		t.Fatalf("over-limit Create built %d streams, want 0", builds)
	}
	streamBuildHook = nil

	// Concurrent creates at the limit: exactly max succeed.
	m2 := NewSessionManager(4, 0)
	defer m2.Stop()
	var ok, full atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, err := m2.Create(e, false); err {
			case nil:
				ok.Add(1)
			case ErrTooManySessions:
				full.Add(1)
			default:
				t.Errorf("unexpected Create error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != 4 || full.Load() != 12 {
		t.Fatalf("creates: %d ok %d full, want 4/12", ok.Load(), full.Load())
	}
	if m2.Len() != 4 {
		t.Fatalf("sessions live = %d, want 4", m2.Len())
	}
}

// TestSessionInfoCounterScoping pins the SessionInfo JSON contract for the
// one backend counter a session reports: baseline_skipped is a plain
// integer that is always present, so a session that has skipped nothing
// says 0 and never drops the key.
func TestSessionInfoCounterScoping(t *testing.T) {
	m := NewSessionManager(0, 0)
	defer m.Stop()
	s, err := m.Create(testEntry(t), false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := json.Marshal(s.Info())
	if !strings.Contains(string(fresh), `"baseline_skipped":0`) {
		t.Errorf("fresh session JSON lacks a zero baseline_skipped: %s", fresh)
	}
	if _, _, _, err := s.Write([]byte("quiet input, no matches")); err != nil {
		t.Fatal(err)
	}
	if got := s.Info().BaselineSkipped; got == 0 {
		t.Errorf("baseline_skipped = 0 after a quiet write the default engine scans past")
	}
	written, _ := json.Marshal(s.Info())
	for _, key := range []string{"engine", "prefilter_skipped", "cache_hits", "cache_misses", "cache_evictions"} {
		if strings.Contains(string(written), `"`+key+`"`) {
			t.Errorf("session JSON still carries %q: %s", key, written)
		}
	}
}

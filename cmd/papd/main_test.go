package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pap/internal/server"
)

func TestReadPatterns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	content := "# intrusion rules\nattack\n\nGET /admin\n  spaced  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readPatterns(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"attack", "GET /admin", "spaced"}
	if len(got) != len(want) {
		t.Fatalf("patterns = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPreloadRegisters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte("needle\nha[ys]+tack\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{})
	defer s.Shutdown(context.Background())
	if err := preload(s, []string{"ids=" + path}); err != nil {
		t.Fatal(err)
	}
	e, err := s.Registry().Get("ids")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Automaton.Match([]byte("a needle in a haystack")); len(got) != 2 {
		t.Fatalf("preloaded automaton found %d matches, want 2", len(got))
	}
}

func TestPreloadErrors(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Shutdown(context.Background())
	if err := preload(s, []string{"ids=/nonexistent/file"}); err == nil {
		t.Fatal("missing file must error")
	}
	var pf preloadFlag
	if err := pf.Set("no-equals-sign"); err == nil {
		t.Fatal("malformed -preload must error")
	}
	if err := pf.Set("a=b"); err != nil || pf.String() != "a=b" {
		t.Fatalf("Set: %v, String: %q", err, pf.String())
	}
}

func TestSplitPeers(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a:1", 1},
		{"a:1,b:2", 2},
		{" a:1 , , b:2 ,", 2},
	}
	for _, c := range cases {
		if got := splitPeers(c.in); len(got) != c.want {
			t.Errorf("splitPeers(%q) = %q, want %d peers", c.in, got, c.want)
		}
	}
}

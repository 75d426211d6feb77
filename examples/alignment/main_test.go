package main

import "testing"

// TestMainRuns runs the example end to end: main exits through log.Fatal on
// any error, which fails the test binary.
func TestMainRuns(t *testing.T) { main() }

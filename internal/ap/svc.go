package ap

import (
	"fmt"

	"pap/internal/nfa"
)

// FlowID identifies one SVC entry (one flow) within a segment's replica.
type FlowID int

// SVC models the State Vector Cache of the devices hosting one automaton
// replica: up to 512 saved flow contexts per device (§3.2). A context is
// the enabled-state vector of a suspended flow; the simulator stores it
// sparsely together with its Zobrist fingerprint, which stands in for the
// bitwise XOR/wired-AND comparator the paper adds to the SVC for
// convergence checks (§3.3.3).
//
// Concurrency: AllocOverflow and Invalidate must be serialized; Save and
// Load on *distinct* valid entries may run concurrently (each touches only
// its own entry). PAP needs neither: a segment's SVC belongs to the
// segment's driver.
type SVC struct {
	capacity int
	entries  []svcEntry
	active   int
}

type svcEntry struct {
	frontier []nfa.StateID
	fp       uint64
	valid    bool
}

// NewSVC returns an SVC spanning the given number of devices.
func NewSVC(devices int) *SVC {
	if devices < 1 {
		devices = 1
	}
	return &SVC{capacity: SVCEntriesPerDevice * devices}
}

// Capacity returns the maximum number of concurrently valid entries.
func (s *SVC) Capacity() int { return s.capacity }

// Active returns the number of valid entries.
func (s *SVC) Active() int { return s.active }

// AllocOverflow stores a new flow context and returns its ID. It always
// succeeds, even beyond Capacity: the planner compares its flow count with
// the hardware once, up front (CheckFlowCapacity), and notes an excess
// rather than failing, since ablations that disable flow merging exceed it
// on purpose. Real hardware could not run such a plan; results remain
// functionally exact.
func (s *SVC) AllocOverflow(frontier []nfa.StateID, fp uint64) FlowID {
	ctx := make([]nfa.StateID, len(frontier))
	copy(ctx, frontier)
	s.entries = append(s.entries, svcEntry{frontier: ctx, fp: fp, valid: true})
	s.active++
	return FlowID(len(s.entries) - 1)
}

// Save overwrites the context of an existing valid entry.
func (s *SVC) Save(id FlowID, frontier []nfa.StateID, fp uint64) {
	e := &s.entries[id]
	if !e.valid {
		panic(fmt.Sprintf("ap: Save on invalid flow %d", id))
	}
	e.frontier = append(e.frontier[:0], frontier...)
	e.fp = fp
}

// Load returns the saved context of a valid entry. The returned slice is
// owned by the SVC; callers must copy it before the next Save.
func (s *SVC) Load(id FlowID) ([]nfa.StateID, uint64) {
	e := &s.entries[id]
	if !e.valid {
		panic(fmt.Sprintf("ap: Load on invalid flow %d", id))
	}
	return e.frontier, e.fp
}

// Invalidate frees an entry (flow deactivated, converged, or killed by a
// Flow Invalidation Vector). Invalidating twice is a no-op.
func (s *SVC) Invalidate(id FlowID) {
	e := &s.entries[id]
	if e.valid {
		e.valid = false
		e.frontier = nil
		s.active--
	}
}

// Valid reports whether the entry still holds a live flow.
func (s *SVC) Valid(id FlowID) bool {
	return int(id) < len(s.entries) && s.entries[id].valid
}

// Fingerprint returns the stored comparator fingerprint of a valid entry.
func (s *SVC) Fingerprint(id FlowID) uint64 {
	e := &s.entries[id]
	if !e.valid {
		panic(fmt.Sprintf("ap: Fingerprint on invalid flow %d", id))
	}
	return e.fp
}

// Package ap models the Micron Automata Processor D480 board: its physical
// hierarchy (ranks → devices → half-cores → blocks → rows → STEs), its
// published timing constants, and the flow abstraction backed by the
// per-device State Vector Cache (SVC). The model is the substrate the paper
// evaluates against (via VASim + these constants); no physical routing is
// simulated, but placement and SVC capacity are checked so that plans that
// would not fit real hardware are rejected.
package ap

import (
	"fmt"
)

// Architectural constants of the D480 generation, from the paper (§2.1,
// §3.2, §4.2) and the AP design notes it cites.
const (
	// SymbolCycleNS is the deterministic symbol processing rate: one 8-bit
	// symbol every 7.5 ns.
	SymbolCycleNS = 7.5

	// STEsPerDevice is the number of State Transition Elements per D480
	// device, organised as 2 half-cores of 192/2 blocks each.
	STEsPerDevice   = 49152
	HalfCoresPerDev = 2
	STEsPerHalfCore = STEsPerDevice / HalfCoresPerDev // 24576
	BlocksPerDevice = 192
	RowsPerBlock    = 256
	STEsPerRow      = 16

	// DevicesPerRank and MaxRanks give the board organisation: the current
	// generation board carries 4 ranks of 8 devices (§2.1).
	DevicesPerRank = 8
	MaxRanks       = 4

	// HalfCoresPerRank is the number of independent processing units per
	// rank; each half-core is the smallest unit of input partitioning.
	HalfCoresPerRank = DevicesPerRank * HalfCoresPerDev // 16

	// StateVectorBits is the size of one flow context: (256 enable bits +
	// 56 counter bits) × 192 blocks + 32 count bits (§3.2).
	StateVectorBits = (256+56)*BlocksPerDevice + 32 // 59936

	// SVCEntriesPerDevice is the State Vector Cache capacity: at most 512
	// concurrently active flows per device (§5.1).
	SVCEntriesPerDevice = 512

	// FlowSwitchCycles is the flow context-switch cost: save the current
	// state vector, fetch the next, load mask register and counters (§3.2).
	FlowSwitchCycles = 3

	// SVTransferCycles is the cost of transferring one final state vector
	// from the AP to the host CPU's save buffer (§3.4).
	SVTransferCycles = 1668

	// FIVTransferCycles is the cost of sending the 512-bit Flow
	// Invalidation Vector from the host back to the AP (§4.2).
	FIVTransferCycles = 15
)

// Cycles counts AP symbol cycles (7.5 ns each).
type Cycles int64

// Nanoseconds converts a cycle count to wall time in nanoseconds.
func (c Cycles) Nanoseconds() float64 { return float64(c) * SymbolCycleNS }

// Board describes one AP board configuration.
type Board struct {
	Ranks int
}

// NewBoard returns a board with the given number of ranks (1..MaxRanks).
func NewBoard(ranks int) (Board, error) {
	if ranks < 1 || ranks > MaxRanks {
		return Board{}, fmt.Errorf("ap: ranks must be in [1,%d], got %d", MaxRanks, ranks)
	}
	return Board{Ranks: ranks}, nil
}

// HalfCores returns the total number of half-cores on the board.
func (b Board) HalfCores() int { return b.Ranks * HalfCoresPerRank }

// Placement is the physical footprint of one automaton on the board.
type Placement struct {
	States    int
	HalfCores int // half-cores occupied by one copy of the automaton
	Devices   int // devices spanned by one copy
}

// Place computes the footprint of an automaton with the given number of
// states at full placement density: one copy occupies ceil(states /
// STEsPerHalfCore) half-cores. Table 1's footprints are post-compilation,
// and where the proprietary place&route deviates from this count the
// planner takes them as given instead (core.Config.HalfCoresOverride).
func Place(states int) (Placement, error) {
	if states <= 0 {
		return Placement{}, fmt.Errorf("ap: cannot place %d states", states)
	}
	hc := (states + STEsPerHalfCore - 1) / STEsPerHalfCore
	return Placement{
		States:    states,
		HalfCores: hc,
		Devices:   (hc + HalfCoresPerDev - 1) / HalfCoresPerDev,
	}, nil
}

// Segments returns how many input segments the board can process in
// parallel for an automaton with the given placement: each segment needs
// its own replica of the automaton (paper Table 1: 16/8/5 segments per rank
// for 1/2/3 half-core automata).
func (b Board) Segments(p Placement) int {
	if p.HalfCores <= 0 {
		return 0
	}
	return b.HalfCores() / p.HalfCores
}

// CheckFlowCapacity verifies that a plan with maxFlows concurrently active
// flows per segment fits the State Vector Cache of the devices hosting one
// replica. The paper notes several benchmarks initially exceed the 512-flow
// limit; flow-merging optimizations must bring them under it.
func CheckFlowCapacity(p Placement, maxFlows int) error {
	cap := SVCEntriesPerDevice * maxInt(1, p.Devices)
	if maxFlows > cap {
		return fmt.Errorf("ap: %d flows exceed SVC capacity %d (%d devices)", maxFlows, cap, p.Devices)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

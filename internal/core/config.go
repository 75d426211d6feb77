// Package core implements the Parallel Automata Processor (PAP): the
// enumerative parallelization of NFA execution on the Micron AP described
// in Subramaniyan & Das, ISCA 2017.
//
// The pipeline (paper §3.5, Figure 7):
//
//	preprocessing: range profiling → cut-symbol choice → enumeration units
//	               (common-parent groups, §3.3.2) → CC-aware flow packing
//	               (§3.3.1) → State Vector Cache contents
//	runtime:       per-segment time-division-multiplexed flow execution with
//	               deactivation checks (§3.3.4), convergence checks (§3.3.3)
//	               and Flow Invalidation Vectors from preceding segments
//	               (§3.4), then host-side composition of true-flow reports.
//
// Run both executes the automaton functionally (producing exactly the
// sequential report set; this is checked) and models AP cycle costs with
// the published timing constants, yielding the speedups of Figure 8 and the
// overhead breakdowns of Figures 9-12.
package core

import (
	"fmt"
	"runtime"

	"pap/internal/ap"
	"pap/internal/engine"

	// Link the lazy-DFA backend so engine.LazyDFAKind and engine.MetaKind
	// are constructible on every core execution path (the backend
	// registers itself via engine.RegisterLazyDFA in its init).
	_ "pap/internal/engine/lazydfa"
	"pap/internal/faultinject"
)

// Config controls planning, execution, and the timing model. The zero
// value is not valid; start from DefaultConfig.
type Config struct {
	// Ranks selects the board size (1..4). The paper evaluates 1 and 4.
	Ranks int

	// TDMQuantum is k, the number of symbols each flow processes before a
	// context switch (§3.2). Larger quanta amortize switching; smaller
	// quanta deactivate false flows sooner.
	TDMQuantum int

	// ConvergenceEvery is the number of TDM steps between convergence
	// checks (§3.3.3; the paper invokes them every ten TDM steps).
	ConvergenceEvery int

	// SwitchCycles is the flow context-switch cost in symbol cycles
	// (default ap.FlowSwitchCycles = 3; §5.3 studies 2× and 4×).
	SwitchCycles int

	// HalfCoresOverride, when > 0, forces the per-replica footprint instead
	// of deriving it from the state count (Table 1 footprints reflect the
	// proprietary place&route, which deviates from pure counting for some
	// benchmarks, e.g. SPM).
	HalfCoresOverride int

	// MaxSegments, when > 0, caps the number of input segments below the
	// board limit.
	MaxSegments int

	// CutSymbol, when >= 0, forces the partition symbol instead of
	// profiling the input for a frequent low-range symbol (§3.1).
	CutSymbol int

	// Workers bounds the simulator goroutines of one run under the parallel
	// scheduler, the calling one among them: at most this many segments are
	// simulated at once, the golden run included — each on an engine its
	// goroutine keeps from one segment to the next. With one worker, and
	// under the serial scheduler, everything runs in turn on the caller,
	// golden run first. It affects wall-clock simulation speed only, never
	// modelled AP cycles. Default: GOMAXPROCS.
	Workers int

	// SegmentParallel executes the k input segments concurrently from t=0
	// on up to Workers goroutines, with the golden execution beside them —
	// the paper's actual machine model (§3, Figure 6; §5.1) — chaining
	// boundary truth through truth cells so each segment's Flow
	// Invalidation Vector fires the moment its predecessor's truth is
	// known. Modelled ap.Cycles metrics are bit-identical to the
	// serial scheduler (the conformance parity invariant asserts this);
	// only real wall-clock time changes. Default true (DefaultConfig); set
	// false for the serial scheduler, which starts no goroutine: the
	// determinism baseline of the timing model, and what pap.MatchParallel
	// runs an input of at most 256 bytes on, where a goroutine hand-off
	// mostly adds to the call's fixed cost. core applies the setting as
	// given, whatever the input length.
	SegmentParallel bool

	// Engine selects the execution backend for every engine this run
	// creates — the golden run and the per-flow TDM engines. The zero
	// value (engine.Auto) chooses between the sparse frontier-list and
	// dense bit-vector representations by step cost (see engine.New);
	// engine.SparseKind and engine.BitKind force one.
	// The choice affects simulator wall-clock speed only, never modelled
	// AP cycles or results (the backends are observably equivalent).
	Engine engine.Kind

	// Mode selects the parallel execution strategy: ModeFlows (zero value)
	// is the paper's flow enumeration with FIV/convergence kills; ModeSFA
	// runs one flow per frontier-equivalence class and composes the
	// per-segment entry→exit state mappings at segment boundaries instead
	// of sending Flow Invalidation Vectors (see mode.go). Both modes
	// produce exactly the sequential report set (checked); modelled cycle
	// metrics differ because the strategies do different work.
	Mode Mode

	// Scored enables per-transition score tracking (the scored-NFA sequence
	// alignment model; see engine.Scorer): every engine the run creates
	// tracks best-path scores, reports carry them, flows inherit exact entry
	// scores from the golden boundaries, and Result gains BestScore.
	// Modelled cycles are unchanged — scores ride on the flows the machinery
	// already runs. validate() forces DisableConvergence on and
	// AbsorbDeactivation off: both merges compare frontiers score-blind, and
	// two flows with equal frontiers can carry different score vectors, so
	// merging could lose the best score. (The zero-frontier deactivation
	// check is unaffected: a dead flow carries no scores.)
	Scored bool

	// AbsorbDeactivation kills a flow whose enumeration activity has been
	// absorbed by the always-active baseline: at that instant its full
	// hardware vector equals the ASG flow's, and equal vectors evolve
	// identically forever. On the real machine this happens naturally —
	// the ASG flow is an SVC entry like any other, so the §3.3.3 pairwise
	// convergence checks merge absorbed flows into it. Default true
	// (paper-faithful); disable to study zero-mask-only deactivation.
	AbsorbDeactivation bool

	// Ablation switches (used by the design-choice benchmarks).
	DisableCCMerge      bool // one flow per enumeration unit
	DisableParentMerge  bool // one unit per range state
	DisableConvergence  bool // skip §3.3.3 checks
	DisableDeactivation bool // skip §3.3.4 checks
	DisableFIV          bool // never send Flow Invalidation Vectors
	DisablePrefilter    bool // never skip dead-frontier input regions
	// DisableBaselineSkip turns off the exact baseline-skip fast path
	// (start-class scan over ASG-only regions). Unlike DisablePrefilter it
	// never changes any observable — reports, frontiers, and modelled
	// cycles are bit-identical either way — so it exists purely as a
	// conformance ablation and for isolating the fast path in benchmarks.
	DisableBaselineSkip bool

	// Fault, when non-nil, is fired at every instrumented pipeline point
	// (plan build, each TDM round boundary, FIV transfers, truth
	// publication, SFA boundary composition, each cut the golden run
	// passes) and may delay the stage, fail it with an error, or
	// panic — the deterministic chaos layer (internal/faultinject). A
	// returned error aborts the run with *Aborted; a panic is recovered
	// at the boundary of the segment, or of the golden run, that reached
	// the point, and converted likewise. A run with a hook takes every TDM
	// round on its own, so that round coordinates mean what they say; nil
	// (the default) costs one comparison per trip of the round loop and
	// nothing per symbol.
	Fault faultinject.Hook
}

// DefaultConfig returns the paper's operating point for the given number
// of ranks.
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:              ranks,
		TDMQuantum:         64,
		ConvergenceEvery:   10,
		SwitchCycles:       ap.FlowSwitchCycles,
		CutSymbol:          -1,
		Workers:            runtime.GOMAXPROCS(0),
		SegmentParallel:    true,
		AbsorbDeactivation: true,
	}
}

// validate normalises and checks the configuration.
func (c *Config) validate() error {
	if c.Ranks < 1 || c.Ranks > ap.MaxRanks {
		return fmt.Errorf("core: Ranks = %d out of [1,%d]", c.Ranks, ap.MaxRanks)
	}
	if c.TDMQuantum < 1 {
		return fmt.Errorf("core: TDMQuantum = %d must be >= 1", c.TDMQuantum)
	}
	if c.ConvergenceEvery < 1 {
		return fmt.Errorf("core: ConvergenceEvery = %d must be >= 1", c.ConvergenceEvery)
	}
	if c.SwitchCycles < 0 {
		return fmt.Errorf("core: SwitchCycles = %d must be >= 0", c.SwitchCycles)
	}
	if c.CutSymbol > 255 {
		return fmt.Errorf("core: CutSymbol = %d out of [-1,255]", c.CutSymbol)
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Engine > engine.MaxKind {
		return fmt.Errorf("core: unknown engine kind %d", c.Engine)
	}
	if c.Mode > maxMode {
		return fmt.Errorf("core: unknown execution mode %d", c.Mode)
	}
	if c.Scored {
		// Score-blind flow merges are inexact (see the Scored field docs);
		// forcing them off is trivially exact and keeps serial/parallel
		// modelled-cycle parity.
		c.DisableConvergence = true
		c.AbsorbDeactivation = false
	}
	return nil
}

// Host-side cost model, in AP symbol cycles (7.5 ns each), for the false
// path decoding of §3.4 (Figure 11). The host transfers one state vector
// per device, scans it, walks the flow table, and runs the per-unit subset
// checks that identify true flows; the same pass assembles the FIV and the
// Boolean array used to filter the output event buffer.
const (
	// svScanCycles is the host time to interpret one transferred state
	// vector ("another few tens of symbol cycles", §3.4).
	svScanCycles = 60
	// flowTableCycles is charged per SVC entry visited.
	flowTableCycles = 2
	// unitCheckDiv divides the (units × flows) subset-check work done in
	// the overlapped phase, and the per-unit table lookups of the serial
	// phase: both are 64-bit vectorised on the host.
	unitCheckDiv = 64
	// eventDecodeCycles is charged per output-buffer entry parsed, in both
	// the sequential baseline and PAP (§4.1: post-processing accounted in
	// both).
	eventDecodeCycles = 2
)

// The host work for one finished segment splits into two parts that the
// timeline treats differently (§3.4, Figure 6):
//
//   - hostParallelCycles: transferring and scanning the segment's state
//     vectors and parsing its output events. This starts as soon as the
//     segment finishes and overlaps both other segments' decodes (the host
//     has many cores) and remaining AP processing.
//   - hostSerialCycles: the truth-propagation step, which depends on the
//     previous segment's truth and therefore chains serially. Because each
//     next-segment unit lies in exactly one connected component, its subset
//     test against every candidate flow vector can be precomputed during
//     the overlapped phase; the serial step only selects the true flow per
//     component, looks up the precomputed unit answers, and emits the
//     Boolean array + FIV — per-flow table work plus vectorised lookups.
func hostParallelCycles(devices int, events int64, units, flows int) ap.Cycles {
	if devices < 1 {
		devices = 1
	}
	return ap.Cycles(devices*(ap.SVTransferCycles+svScanCycles)) +
		ap.Cycles(events*eventDecodeCycles) +
		ap.Cycles(units*flows/unitCheckDiv)
}

func hostSerialCycles(units, flows int) ap.Cycles {
	return ap.Cycles(flows*flowTableCycles + units/unitCheckDiv)
}

// hostDecodeCycles is the total Tcpu for one segment (Figure 11).
func hostDecodeCycles(devices, units, flows int) ap.Cycles {
	return hostParallelCycles(devices, 0, units, flows) + hostSerialCycles(units, flows)
}

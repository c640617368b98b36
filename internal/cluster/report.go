package cluster

import (
	"time"

	"repro/internal/consolidation"
	"repro/internal/units"
)

// MigrationRecord is one completed migration of the timeline.
type MigrationRecord struct {
	// VM, From and To identify the move.
	VM, From, To string
	// Pair is the testbed pair the move was lowered onto (the part of
	// the run-cache key that carries the topology).
	Pair string
	// Start and End bound the migration on the cluster timeline,
	// including contention-induced stretching.
	Start, End time.Duration
	// Duration is End − Start.
	Duration time.Duration
	// Stretch is the contention factor of the transfer phase: actual
	// transfer span over intrinsic. 1 means the link was private.
	Stretch float64
	// Energy is the contention-adjusted source+target migration energy:
	// the intrinsic measured energy with the transfer-phase share scaled
	// by Stretch.
	Energy units.Joules
	// IntrinsicEnergy is the unstretched measured energy of the
	// underlying kernel run.
	IntrinsicEnergy units.Joules
	// BytesSent is the state data moved.
	BytesSent units.Bytes
	// Rounds is the pre-copy round count (live only).
	Rounds int
	// Downtime is the guest suspension span.
	Downtime time.Duration
}

// TickRecord is one policy invocation of the timeline.
type TickRecord struct {
	// At is the tick instant.
	At time.Duration
	// Moves is how many migrations the round planned and dispatched.
	Moves int
	// Pinned is how many placement entries the round pinned —
	// what the policy actually saw: every in-flight migration contributes
	// two (the migrating VM on its source and its "+incoming" destination
	// reservation), and a VM whose flight just aborted contributes one
	// for its one-round cool-down.
	Pinned int
}

// AbortRecord is one in-flight migration killed by a failure event.
type AbortRecord struct {
	// VM, From and To identify the killed move.
	VM, From, To string
	// Pair is the testbed pair the move was lowered onto.
	Pair string
	// Start is the dispatch instant; End is the abort instant.
	Start, End time.Duration
	// Phase is the lifecycle phase the abort hit: "head", "transfer" or
	// "tail".
	Phase string
	// Reason labels the killing event: "host-crash <host>",
	// "flight-abort", or "stranded" (the flight was still stalled on an
	// unrestored switch when the timeline drained).
	Reason string
	// Energy is the share of the kernel-measured migration energy spent
	// before the abort (charged to TotalEnergy; the migration bought
	// nothing with it).
	Energy units.Joules
}

// PowerPoint is one breakpoint of the fleet power trace: from At
// onward the fleet draws Watts, until the next point.
type PowerPoint struct {
	At    time.Duration
	Watts units.Watts
}

// PhaseShift is one workload phase transition of the timeline.
type PhaseShift struct {
	// At is the boundary instant.
	At time.Duration
	// VM is the guest whose workload changed.
	VM string
	// Phase labels the phase being entered ("" when the timeline ended
	// and the final level holds).
	Phase string
}

// Report is everything one cluster timeline yields.
type Report struct {
	// Timeline lists the completed migrations in dispatch order.
	Timeline []MigrationRecord
	// Ticks lists the policy invocations in order (empty without a
	// policy).
	Ticks []TickRecord
	// Shifts lists the workload phase transitions inside the horizon.
	Shifts []PhaseShift
	// TotalEnergy is the contention-adjusted migration energy of the
	// whole timeline.
	TotalEnergy units.Joules
	// Makespan is when the last migration landed (zero when none ran).
	Makespan time.Duration
	// FreedHosts are hosts left empty at the end, in name order.
	FreedHosts []string
	// IdleSavings is the idle power those hosts stop drawing once
	// switched off.
	IdleSavings units.Watts
	// Final is the end-of-timeline placement in host name order, with
	// VM demand evaluated at the makespan.
	Final []consolidation.HostState
	// PeakFlights is the most migrations ever simultaneously in the air
	// — the fleet's worst-case concurrent transfer pressure (1 on serial
	// timelines with moves, 0 when nothing migrated).
	PeakFlights int
	// MaxStretch is the worst per-flight contention stretch of the
	// timeline: how badly the most-contended transfer was slowed by
	// sharing its switch (0 when nothing migrated, 1 when every link
	// stayed private).
	MaxStretch float64
	// ReplanRounds is how many policy rounds executed (== len(Ticks);
	// 0 for explicit timelines).
	ReplanRounds int
	// Aborted lists the migrations killed by failure events, in abort
	// order (empty without failure injection).
	Aborted []AbortRecord
	// AbortedFlights is len(Aborted) — the timeline's SLO-visible
	// failure count.
	AbortedFlights int
	// OrphanedVMs counts the VMs stranded by host crashes;
	// EvacuatedVMs counts how many of them landed on a live host again.
	OrphanedVMs  int
	EvacuatedVMs int
	// EvacuationDeadlineMet reports the crash-recovery SLO: every
	// orphaned VM landed on a live host, within
	// Config.EvacuationDeadline of its crash when a deadline is set.
	// Vacuously true when nothing crashed.
	EvacuationDeadlineMet bool
	// PowerTrace is the fleet's piecewise-constant power timeline: the
	// idle floors of the live hosts (a crashed host's floor drops out at
	// the crash) plus each migration's — and each aborted flight's —
	// energy spread over its wall-clock span.
	PowerTrace []PowerPoint
	// FleetEnergy integrates PowerTrace over [0, max(Makespan, Horizon,
	// last breakpoint)]: the energy-over-time score chaos scenarios are
	// judged by, idle draw included.
	FleetEnergy units.Joules
}

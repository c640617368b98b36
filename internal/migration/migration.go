// Package migration implements the two Xen migration mechanisms the paper
// models (Section III-A): non-live (suspend-resume) migration and
// iterative pre-copy live migration, as steppable state machines driven by
// the simulation clock. The engines produce the phase boundaries (ms, ts,
// te, me) of Section IV-A, and they reproduce the emergent behaviours the
// paper's figures hinge on — dirty-rate-dependent round counts, the forced
// stop-and-copy that "transforms the live migration in a non-live one",
// and CPU-starvation-dependent transfer bandwidth.
package migration

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/xen"
)

// Kind selects the migration mechanism.
type Kind int

// Migration kinds.
const (
	NonLive Kind = iota
	Live
)

// String names the kind the way the paper's tables do.
func (k Kind) String() string {
	if name, ok := postCopyString(k); ok {
		return name
	}
	if k == Live {
		return "live"
	}
	return "non-live"
}

// ParseKind parses the external (scenario-file) spelling of a migration
// mechanism. The empty string selects Live, the testbed default, so
// declarative specs can omit the field.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "live":
		return Live, nil
	case "non-live":
		return NonLive, nil
	case "post-copy":
		return PostCopy, nil
	default:
		return 0, fmt.Errorf("unknown migration kind %q (want live, non-live or post-copy)", s)
	}
}

// Config tunes an engine. Zero values select the defaults below.
type Config struct {
	// Kind selects live or non-live migration.
	Kind Kind
	// InitiationTime is the handshake/preparation span (connection setup,
	// target resource checks, shadow-mode enablement for live).
	InitiationTime time.Duration
	// ActivationTime is the resume-on-target / cleanup-on-source span.
	ActivationTime time.Duration
	// MaxRounds bounds the pre-copy iterations (Xen's xc_save caps its
	// iterative phase similarly).
	MaxRounds int
	// StopThreshold ends pre-copy early once the remaining dirty set is at
	// most this many pages.
	StopThreshold units.Pages
	// MaxDataFactor aborts pre-copy once total data sent exceeds this
	// multiple of the VM memory size (Xen's 3× safety valve).
	MaxDataFactor float64
}

// Defaults matching the testbed's observed phase lengths.
const (
	DefaultInitiationTime = 3 * time.Second
	DefaultActivationTime = 4 * time.Second
	DefaultMaxRounds      = 30
	DefaultStopThreshold  = units.Pages(256) // 1 MiB of 4 KiB pages
	DefaultMaxDataFactor  = 3.0
)

func (c Config) withDefaults() Config {
	if c.InitiationTime <= 0 {
		c.InitiationTime = DefaultInitiationTime
	}
	if c.ActivationTime <= 0 {
		c.ActivationTime = DefaultActivationTime
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = DefaultMaxRounds
	}
	if c.StopThreshold <= 0 {
		c.StopThreshold = DefaultStopThreshold
	}
	if c.MaxDataFactor <= 0 {
		c.MaxDataFactor = DefaultMaxDataFactor
	}
	return c
}

// state is the engine's internal lifecycle.
type state int

const (
	stateIdle state = iota
	stateInitiation
	stateTransfer
	stateStopAndCopy // live only: final round with the guest suspended
	stateActivation
	stateDone
)

// Engine drives one migration of one guest between two hosts.
type Engine struct {
	cfg   Config
	src   *xen.Host
	dst   *xen.Host
	guest *vm.VM
	link  *netsim.Link

	st             state
	startedAt      time.Duration
	phaseStart     time.Duration
	bounds         trace.Boundaries
	stream         *netsim.Stream
	round          int
	bytesSent      units.Bytes
	downtime       time.Duration
	suspended      bool
	suspendedAt    time.Duration
	moved          bool // guest already placed on the target (post-copy)
	lastBW         units.BitsPerSecond
	roundStartDirt units.Pages
}

// New prepares (but does not start) a migration of the named guest from
// src to dst over link.
func New(cfg Config, src, dst *xen.Host, guestName string, link *netsim.Link) (*Engine, error) {
	if src == nil || dst == nil || link == nil {
		return nil, errors.New("migration: nil host or link")
	}
	g, ok := src.Guest(guestName)
	if !ok {
		return nil, fmt.Errorf("migration: guest %q not on source %s", guestName, src.Spec.Name)
	}
	if g.State() != vm.StateRunning {
		return nil, fmt.Errorf("migration: guest %q is %v, want running", guestName, g.State())
	}
	if g.Memory == nil {
		return nil, fmt.Errorf("migration: guest %q has no memory image", guestName)
	}
	// Xen refuses migration between incompatible machines. The paper's
	// testbed used homogeneous pairs; heterogeneous same-architecture
	// pairs (CPUID-levelled, as production Xen supports) are allowed as an
	// extension, but the toolstacks must speak the same migration
	// protocol — a hypervisor version mismatch is a hard refusal.
	if src.Spec.XenVersion != dst.Spec.XenVersion {
		return nil, fmt.Errorf("migration: %s (Xen %s) and %s (Xen %s) are not migration-compatible",
			src.Spec.Name, src.Spec.XenVersion, dst.Spec.Name, dst.Spec.XenVersion)
	}
	return &Engine{cfg: cfg.withDefaults(), src: src, dst: dst, guest: g, link: link}, nil
}

// Start begins the migration at simulation time now (the consolidation
// manager's request instant, ms).
func (e *Engine) Start(now time.Duration) error {
	if e.st != stateIdle {
		return errors.New("migration: already started")
	}
	e.st = stateInitiation
	e.startedAt = now
	e.phaseStart = now
	e.bounds.MS = now
	e.src.SetMigrationActive(true)
	e.dst.SetMigrationActive(true)

	switch e.cfg.Kind {
	case NonLive:
		// Suspend-resume: the guest stops right away — the paper's "strong
		// decrease in power consumption" at non-live initiation.
		if err := e.guest.Suspend(); err != nil {
			return err
		}
		e.suspended = true
		e.suspendedAt = now
	case PostCopy:
		if err := e.startPostCopy(); err != nil {
			return err
		}
	default:
		// Live: enable log-dirty mode; the guest keeps running.
		if err := e.guest.BeginMigration(); err != nil {
			return err
		}
	}
	return nil
}

// Phase returns the current energy phase for feature labelling.
func (e *Engine) Phase() trace.Phase {
	switch e.st {
	case stateInitiation:
		return trace.PhaseInitiation
	case stateTransfer, stateStopAndCopy:
		return trace.PhaseTransfer
	case stateActivation:
		return trace.PhaseActivation
	default:
		return trace.PhaseNormal
	}
}

// Done reports completion.
func (e *Engine) Done() bool { return e.st == stateDone }

// Boundaries returns the recorded phase boundaries; only meaningful once
// Done.
func (e *Engine) Boundaries() trace.Boundaries { return e.bounds }

// BytesSent returns the total state data moved so far.
func (e *Engine) BytesSent() units.Bytes { return e.bytesSent }

// Rounds returns the number of completed pre-copy rounds (live only).
func (e *Engine) Rounds() int { return e.round }

// Downtime returns how long the guest was suspended.
func (e *Engine) Downtime() time.Duration { return e.downtime }

// CurrentBandwidth returns the bandwidth used in the last step (BW(S,T,t)).
func (e *Engine) CurrentBandwidth() units.BitsPerSecond {
	if e.st == stateTransfer || e.st == stateStopAndCopy {
		return e.lastBW
	}
	return 0
}

// StepReport summarises one engine step for the simulation's bookkeeping.
type StepReport struct {
	// BytesMoved is the state data moved during the step.
	BytesMoved units.Bytes
	// Bandwidth is the transfer bandwidth in use during the step.
	Bandwidth units.BitsPerSecond
	// PhaseChanged reports a phase-boundary crossing within this step.
	PhaseChanged bool
}

// Step advances the migration by dt at simulation time now. srcShare and
// dstShare are the CPU shares the migration helper received on each
// endpoint this step (from xen.Allocation.MigrationShare); they throttle
// the achievable bandwidth.
func (e *Engine) Step(now time.Duration, dt time.Duration, srcShare, dstShare float64) (StepReport, error) {
	var rep StepReport
	if dt <= 0 {
		return rep, errors.New("migration: non-positive dt")
	}
	switch e.st {
	case stateIdle:
		return rep, errors.New("migration: not started")
	case stateDone:
		return rep, nil

	case stateInitiation:
		if now-e.phaseStart >= e.cfg.InitiationTime {
			if err := e.beginTransfer(now); err != nil {
				return rep, err
			}
			rep.PhaseChanged = true
		}
		return rep, nil

	case stateTransfer, stateStopAndCopy:
		bw := e.link.Achievable(srcShare, dstShare)
		e.lastBW = bw
		moved := e.stream.Advance(bw, dt)
		e.bytesSent += moved
		rep.BytesMoved = moved
		rep.Bandwidth = bw
		if e.stream.Done() {
			changed, err := e.endRound(now)
			if err != nil {
				return rep, err
			}
			rep.PhaseChanged = changed
		}
		return rep, nil

	case stateActivation:
		if now-e.phaseStart >= e.cfg.ActivationTime {
			if err := e.finish(now); err != nil {
				return rep, err
			}
			rep.PhaseChanged = true
		}
		return rep, nil
	}
	return rep, fmt.Errorf("migration: unknown state %d", e.st)
}

// beginTransfer opens the first (or only) copy stream.
func (e *Engine) beginTransfer(now time.Duration) error {
	if e.cfg.Kind == PostCopy {
		return e.beginPostCopyTransfer(now)
	}
	e.bounds.TS = now
	e.phaseStart = now
	full := e.guest.Memory.TotalPages().Bytes()
	s, err := netsim.NewStream(full)
	if err != nil {
		return err
	}
	e.stream = s
	e.st = stateTransfer
	if e.cfg.Kind == Live {
		// Round 0 copies every page; the log-dirty count starts clean and
		// records writes that happen during the copy.
		e.guest.Memory.CleanAll()
		e.roundStartDirt = e.guest.Memory.TotalPages()
	}
	return nil
}

// endRound closes the current copy round and decides what happens next.
func (e *Engine) endRound(now time.Duration) (phaseChanged bool, err error) {
	if e.cfg.Kind == NonLive || e.cfg.Kind == PostCopy || e.st == stateStopAndCopy {
		// The single copy (or the final stop-and-copy) finished.
		return true, e.beginActivation(now)
	}

	// Live pre-copy round completed; decide on another round, per the
	// termination criteria of Section III-A step (3).
	e.round++
	dirt := e.guest.Memory.DirtyPages()
	memBytes := e.guest.Memory.TotalPages().Bytes()
	budget := units.Bytes(float64(memBytes) * e.cfg.MaxDataFactor)

	converged := dirt <= e.cfg.StopThreshold
	// The data valve is checked pre-flight: another pre-copy round would
	// resend the current dirty set, so give up as soon as that would push
	// the total past the budget. This bounds what gets sent (≤ budget plus
	// one stop-and-copy) instead of only noticing the overshoot afterwards.
	exhausted := e.round >= e.cfg.MaxRounds || e.bytesSent >= budget ||
		e.bytesSent+dirt.Bytes() > budget
	// No-progress check: if a round ends with at least as many dirty pages
	// as it started with, the workload dirties faster than the link drains
	// and iterating further is pointless (the high-DR regime of Figures 6
	// and 7 where "live migration becomes a non-live one").
	stalled := dirt >= e.roundStartDirt

	if converged || exhausted || stalled {
		// Stop-and-copy: suspend the guest and push the remainder.
		if err := e.guest.Suspend(); err != nil {
			return false, err
		}
		e.suspended = true
		e.suspendedAt = now
		if dirt <= 0 {
			return true, e.beginActivation(now)
		}
		s, err := netsim.NewStream(dirt.Bytes())
		if err != nil {
			return false, err
		}
		e.guest.Memory.CleanAll()
		e.stream = s
		e.st = stateStopAndCopy
		return false, nil // still inside the transfer phase
	}

	// Another pre-copy round: send the pages dirtied during the last one.
	s, err := netsim.NewStream(dirt.Bytes())
	if err != nil {
		return false, err
	}
	e.roundStartDirt = dirt
	e.guest.Memory.CleanAll()
	e.stream = s
	return false, nil
}

// beginActivation records te and starts the resume/cleanup span.
func (e *Engine) beginActivation(now time.Duration) error {
	e.bounds.TE = now
	e.phaseStart = now
	e.st = stateActivation
	return nil
}

// finish moves the guest to the target, resumes it and releases the source.
func (e *Engine) finish(now time.Duration) error {
	if e.moved {
		// Post-copy already switched execution; only cleanup remains.
		return e.finishPostCopy(now)
	}
	e.bounds.ME = now
	if e.suspended {
		e.downtime = now - e.suspendedAt
	}
	// Source side: destroy the stale copy and free resources.
	name := e.guest.Name
	if err := e.src.Detach(name); err != nil {
		return err
	}
	// Target side: adopt the guest and resume it.
	if err := e.dst.Attach(e.guest); err != nil {
		return err
	}
	if e.guest.State() == vm.StateSuspended {
		if err := e.guest.Resume(); err != nil {
			return err
		}
	} else if e.guest.State() == vm.StateMigrating {
		if err := e.guest.EndMigration(); err != nil {
			return err
		}
	}
	e.src.SetMigrationActive(false)
	e.dst.SetMigrationActive(false)
	e.st = stateDone
	return nil
}

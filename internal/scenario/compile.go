package scenario

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vm"
)

// Default observation windows of compiled runs (simulated time). The
// pre-migration window must cover the meter stabilisation rule — 20
// samples at the default 2 Hz cadence — with a little slack.
const (
	DefaultPreMigration  = 11 * time.Second
	DefaultPostMigration = 6 * time.Second
)

// phaseSeedStride separates the derived seeds of a spec's phases. It is a
// large prime, coprime to the repeat stride (1009) used inside
// sim.RunRepeated and the point stride (7919) used by experiment
// campaigns, so the seed lattices of phases, repeats and campaign points
// never collide for realistic index ranges.
const phaseSeedStride = 15485863

// Run is one independently executable migration block compiled from a
// spec: a fully determined sim.Scenario plus the spec's repeat policy.
type Run struct {
	// Label identifies the run in reports: the spec name, plus the phase
	// label when the spec has a phase timeline.
	Label string
	// Scenario is the compiled simulation input (also its run-cache key).
	Scenario sim.Scenario
	// MinRuns / VarianceTol are the repeat policy (paper's variance rule).
	MinRuns     int
	VarianceTol float64
}

// ClusterRun is the compiled form of a cluster or data-centre scenario:
// a ready cluster.Config with Workers, Cache and Ctx left to the caller.
type ClusterRun struct {
	// Policy labels the timeline in reports: the planning policy, or
	// "timeline" for a cluster's explicit move list and
	// "scenario/<name>" for a data-centre one.
	Policy string
	// Config is the lowered engine input.
	Config cluster.Config
}

// Compiled is everything a spec lowers to. Exactly one of Runs (migration
// scenarios, one entry per phase), Plan (data-centre scenarios: a serial
// timeline on the spec's testbed pair) or Cluster (N-host timelines) is
// populated.
type Compiled struct {
	Spec    *Spec
	Runs    []Run
	Plan    *ClusterRun
	Cluster *ClusterRun
}

// Compile validates the spec and lowers it into executable form. The
// result is deterministic: the same spec compiles to the same scenarios
// — and therefore the same run-cache keys — in every session.
func (s *Spec) Compile() (*Compiled, error) {
	run, err := s.validate()
	if err != nil {
		return nil, err
	}
	switch {
	case s.Datacenter != nil:
		return &Compiled{Spec: s, Plan: run}, nil
	case s.Cluster != nil:
		return &Compiled{Spec: s, Cluster: run}, nil
	}
	base, err := s.baseScenario()
	if err != nil {
		return nil, err
	}
	out := &Compiled{Spec: s}
	if len(s.Phases) == 0 {
		out.Runs = []Run{{
			Label:       s.Name,
			Scenario:    base,
			MinRuns:     s.Repeat.minRuns(),
			VarianceTol: s.Repeat.varianceTol(),
		}}
		return out, nil
	}
	for i, p := range s.Phases {
		factor := p.phase().Factor(p.at())
		sc := base
		sc.Name = fmt.Sprintf("%s/%s", base.Name, p.label(i))
		sc.MigratingProfile = base.MigratingProfile.Modulate(factor)
		// Co-located load tracks the phase intensity: a burst doubles both
		// the guest's appetite and its neighbours'.
		sc.SourceLoadVMs = scaleVMs(s.SourceLoadVMs, factor)
		sc.TargetLoadVMs = scaleVMs(s.TargetLoadVMs, factor)
		sc.Seed = base.Seed + int64(i)*phaseSeedStride
		out.Runs = append(out.Runs, Run{
			Label:       fmt.Sprintf("%s/%s", s.Name, p.label(i)),
			Scenario:    sc,
			MinRuns:     s.Repeat.minRuns(),
			VarianceTol: s.Repeat.varianceTol(),
		})
	}
	return out, nil
}

// scaleVMs scales a load-VM count by a phase factor, rounding to nearest.
func scaleVMs(n int, factor float64) int {
	if n <= 0 || factor <= 0 {
		return 0
	}
	return int(math.Round(float64(n) * factor))
}

// baseScenario lowers the spec's common fields into a sim.Scenario
// (before any phase modulation).
func (s *Spec) baseScenario() (sim.Scenario, error) {
	kind, err := s.kind()
	if err != nil {
		return sim.Scenario{}, errf(s.Name, "kind", "%v", err)
	}
	prof, err := s.Migrating.Workload.profile()
	if err != nil {
		return sim.Scenario{}, errf(s.Name, "migrating.workload.profile", "%v", err)
	}
	typ := s.Migrating.Type
	if typ == "" {
		if prof.DirtyPagesPerSecond > 0 && s.Migrating.Workload.dirties() {
			typ = vm.TypeMigratingMem
		} else {
			typ = vm.TypeMigratingCPU
		}
	}
	sc := sim.Scenario{
		Name:             "scen/" + s.Name,
		Pair:             s.pair(),
		Kind:             kind,
		MigratingType:    typ,
		MigratingProfile: prof,
		SourceLoadVMs:    s.SourceLoadVMs,
		TargetLoadVMs:    s.TargetLoadVMs,
		PreMigration:     DefaultPreMigration,
		PostMigration:    DefaultPostMigration,
		Migration:        s.Migration.config(kind),
		Meter:            s.Meter.config(),
		Seed:             s.EffectiveSeed(),
	}
	if s.LoadWorkload != nil {
		lp, err := s.LoadWorkload.profile()
		if err != nil {
			return sim.Scenario{}, errf(s.Name, "load_workload.profile", "%v", err)
		}
		sc.LoadProfile = lp
	}
	if s.Timing != nil {
		if s.Timing.PreS > 0 {
			sc.PreMigration = time.Duration(s.Timing.PreS * float64(time.Second))
		}
		if s.Timing.PostS > 0 {
			sc.PostMigration = time.Duration(s.Timing.PostS * float64(time.Second))
		}
	}
	return sc, nil
}

// HostStates lowers a data-centre spec's hosts into the planning
// states the consolidation policies read.
func (s *Spec) HostStates() []consolidation.HostState {
	dc := s.Datacenter
	hosts := make([]consolidation.HostState, 0, len(dc.Hosts))
	for _, h := range dc.Hosts {
		hs := consolidation.HostState{
			Name:      h.Name,
			Threads:   h.Threads,
			MemBytes:  gib(h.MemGiB),
			IdlePower: units.Watts(h.IdlePowerW),
		}
		for _, v := range h.VMs {
			hs.VMs = append(hs.VMs, consolidation.VMState{
				Name:       v.Name,
				MemBytes:   gib(v.MemGiB),
				BusyVCPUs:  v.BusyVCPUs,
				DirtyRatio: units.Fraction(v.DirtyRatio),
			})
		}
		hosts = append(hosts, hs)
	}
	return hosts
}

// gib converts a fractional GiB count to bytes.
func gib(n float64) units.Bytes {
	return units.Bytes(n * float64(units.GiB))
}

// datacenterRun lowers the validated data-centre hosts into a serial
// cluster timeline on the spec's testbed pair: the explicit moves or,
// without any, the energy-blind first-fit-decreasing plan — the only
// built-in planner that needs no trained estimator, so the timeline
// stays deterministic data — run one after another, each seeing the
// moves before it landed.
func (s *Spec) datacenterRun(kind migration.Kind, hosts []consolidation.HostState) (*ClusterRun, error) {
	run := &ClusterRun{
		Policy: "scenario/" + s.Name,
		Config: cluster.Config{Kind: kind, Pair: s.pair(), Seed: s.EffectiveSeed(), Serial: true},
	}
	for _, h := range hosts {
		ch := cluster.Host{Name: h.Name, Threads: h.Threads, MemBytes: h.MemBytes, IdlePower: h.IdlePower}
		for _, v := range h.VMs {
			ch.VMs = append(ch.VMs, cluster.VM{Name: v.Name, MemBytes: v.MemBytes, BusyVCPUs: v.BusyVCPUs, DirtyRatio: v.DirtyRatio})
		}
		run.Config.Hosts = append(run.Config.Hosts, ch)
	}
	for _, mv := range s.Datacenter.Moves {
		run.Config.Moves = append(run.Config.Moves, cluster.TimedMove{VM: mv.VM, From: mv.From, To: mv.To})
	}
	if len(run.Config.Moves) > 0 {
		return run, nil
	}
	ffd := consolidation.FirstFitDecreasing{}
	plan, err := ffd.Plan(hosts, consolidation.Config{})
	if err != nil {
		return nil, errf(s.Name, "datacenter", "planning moves with %s: %v", ffd.Name(), err)
	}
	run.Policy = ffd.Name()
	for _, m := range plan.Moves {
		run.Config.Moves = append(run.Config.Moves, cluster.TimedMove{VM: m.VM, From: m.From, To: m.To})
	}
	return run, nil
}

// clusterConfig assembles the engine's Config around the already
// expanded and lowered hosts (see expandCluster). The result is
// deterministic: the same spec lowers to the same timeline — and the
// same lowered migration scenarios, the run-cache keys — in every
// session. Validation has vetted every field it reads.
func (s *Spec) clusterConfig(kind migration.Kind, hosts []cluster.Host) cluster.Config {
	c := s.Cluster
	cfg := cluster.Config{
		Hosts:   hosts,
		Kind:    kind,
		Horizon: time.Duration(c.HorizonS * float64(time.Second)),
		Tick:    time.Duration(c.TickS * float64(time.Second)),
		Seed:    s.EffectiveSeed(),
	}
	switch c.Policy {
	case PolicyEnergyAware:
		cfg.Policy = consolidation.EnergyAware{Model: consolidation.HeuristicCost{}}
	case PolicyFirstFit:
		cfg.Policy = consolidation.FirstFitDecreasing{Model: consolidation.HeuristicCost{}}
	}
	cfg.PolicyConfig = consolidation.Config{
		CPUCap:   c.CPUCap,
		MaxMoves: c.MaxMoves,
		Horizon:  time.Duration(c.PaybackS * float64(time.Second)),
	}
	for _, m := range c.Moves {
		cfg.Moves = append(cfg.Moves, cluster.TimedMove{
			VM: m.VM, From: m.From, To: m.To,
			At: time.Duration(m.AtS * float64(time.Second)),
		})
	}
	for _, f := range c.Failures {
		cfg.Failures = append(cfg.Failures, cluster.FailureEvent{
			At:     time.Duration(f.AtS * float64(time.Second)),
			Kind:   cluster.FailureKind(f.Kind),
			Host:   f.Host,
			VM:     f.VM,
			Switch: f.Switch,
		})
	}
	cfg.EvacuationDeadline = time.Duration(c.EvacuationDeadlineS * float64(time.Second))
	return cfg
}

package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/units"
)

// stubCost prices moves the way WAVM3 qualitatively does, for planning.
type stubCost struct{}

func (stubCost) Cost(vm consolidation.VMState, srcBusy, dstBusy float64) (consolidation.MigrationCost, error) {
	gb := float64(vm.MemBytes) / float64(units.GiB)
	expansion := 1 + 2*float64(vm.DirtyRatio)
	slowdown := 1 + dstBusy/32 + srcBusy/64
	return consolidation.MigrationCost{
		Energy:   units.Joules(15_000 * gb * expansion * slowdown),
		Duration: time.Duration(40 * expansion * slowdown * float64(time.Second)),
	}, nil
}

// planDC is a data centre where the two policies make different choices:
// a dirty-memory VM that FFD routes to the busy first-fit host.
func planDC(seed int64) *Spec {
	return &Spec{
		Version: CurrentVersion,
		Name:    "plan-dc",
		Kind:    "live",
		Seed:    seed,
		Datacenter: &Datacenter{Hosts: []HostSpec{
			{Name: "busy", Threads: 32, MemGiB: 64, IdlePowerW: 440, VMs: []VMSpec{
				{Name: "y", MemGiB: 4, BusyVCPUs: 20, DirtyRatio: 0.1},
			}},
			{Name: "calm", Threads: 32, MemGiB: 64, IdlePowerW: 440, VMs: []VMSpec{
				{Name: "x", MemGiB: 4, BusyVCPUs: 4, DirtyRatio: 0.1},
			}},
			{Name: "drainme", Threads: 32, MemGiB: 64, IdlePowerW: 440, VMs: []VMSpec{
				{Name: "dirty", MemGiB: 4, BusyVCPUs: 2, DirtyRatio: 0.9},
			}},
		}},
	}
}

// planWith plans the spec's hosts with the policy and returns the spec
// carrying that plan as its explicit move list.
func planWith(t *testing.T, s *Spec, p consolidation.Policy, cfg consolidation.Config) *Spec {
	t.Helper()
	plan, err := p.Plan(s.HostStates(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Moves {
		s.Datacenter.Moves = append(s.Datacenter.Moves, MoveSpec{VM: m.VM, From: m.From, To: m.To})
	}
	return s
}

// executePlan compiles a data-centre spec and runs its serial timeline.
func executePlan(t *testing.T, s *Spec, workers int) *cluster.Report {
	t.Helper()
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Plan.Config
	cfg.Workers = workers
	rep, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDatacenterPlanMeasuresMoves: every planned move is executed once,
// in plan order, back to back, with non-degenerate measurements, and
// the report's totals are the sums of its moves — the figures the
// plan's "total" line prints.
func TestDatacenterPlanMeasuresMoves(t *testing.T) {
	s := planWith(t, planDC(71), consolidation.EnergyAware{Model: stubCost{}}, consolidation.Config{Horizon: 24 * time.Hour})
	if len(s.Datacenter.Moves) == 0 {
		t.Fatal("planning produced no moves")
	}
	rep := executePlan(t, s, 0)
	if len(rep.Timeline) != len(s.Datacenter.Moves) {
		t.Fatalf("executed %d of %d moves", len(rep.Timeline), len(s.Datacenter.Moves))
	}
	var energy units.Joules
	var elapsed time.Duration
	for i, m := range rep.Timeline {
		if want := s.Datacenter.Moves[i]; m.VM != want.VM || m.From != want.From || m.To != want.To {
			t.Errorf("move %d = %s %s->%s, want %+v", i, m.VM, m.From, m.To, want)
		}
		if m.Energy <= 0 || m.Duration <= 0 || m.BytesSent <= 0 {
			t.Errorf("move %s has degenerate measurements: %+v", m.VM, m)
		}
		if m.Start != elapsed {
			t.Errorf("move %s starts at %v, want %v (when the previous move landed)", m.VM, m.Start, elapsed)
		}
		energy += m.Energy
		elapsed += m.Duration
	}
	if energy != rep.TotalEnergy || elapsed != rep.Makespan {
		t.Errorf("totals %v/%v != sums of moves %v/%v", rep.TotalEnergy, rep.Makespan, energy, elapsed)
	}
}

// TestDatacenterPlanDeterministicAcrossWorkers: every move's scenario is
// derived in plan order before any simulation starts, so a parallel
// execution measures exactly what the sequential one did.
func TestDatacenterPlanDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	s := planWith(t, planDC(9), consolidation.EnergyAware{Model: stubCost{}}, consolidation.Config{Horizon: 24 * time.Hour})
	if len(s.Datacenter.Moves) < 2 {
		t.Fatalf("plan has %d moves; need >= 2 for an ordering test", len(s.Datacenter.Moves))
	}
	seq, par := executePlan(t, s, 1), executePlan(t, s, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("reports differ between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestEnergyAwareBeatsFFDMeasured is the reproduction's end-to-end claim:
// when both policies' plans are executed on the simulated testbed, the
// energy-aware plan's measured migration energy undercuts the
// first-fit-decreasing plan's, provided both free the same hosts.
func TestEnergyAwareBeatsFFDMeasured(t *testing.T) {
	ea := planWith(t, planDC(72), consolidation.EnergyAware{Model: stubCost{}}, consolidation.Config{Horizon: 24 * time.Hour})
	ffd := planWith(t, planDC(72), consolidation.FirstFitDecreasing{Model: stubCost{}}, consolidation.Config{})
	// Precondition for a fair comparison: the dirty VM moves in both plans
	// but to different hosts.
	target := func(s *Spec) string {
		for _, m := range s.Datacenter.Moves {
			if m.VM == "dirty" {
				return m.To
			}
		}
		return ""
	}
	if target(ea) == "" || target(ffd) == "" || target(ea) == target(ffd) {
		t.Fatalf("topology no longer separates the policies: ea->%q ffd->%q", target(ea), target(ffd))
	}
	// Compare the measured cost of moving the dirty VM specifically: the
	// policies chose different targets for it.
	dirtyCost := func(r *cluster.Report) units.Joules {
		for _, m := range r.Timeline {
			if m.VM == "dirty" {
				return m.Energy
			}
		}
		return 0
	}
	eaDirty, ffdDirty := dirtyCost(executePlan(t, ea, 0)), dirtyCost(executePlan(t, ffd, 0))
	if eaDirty <= 0 || ffdDirty <= 0 {
		t.Fatal("dirty VM move missing from a report")
	}
	if eaDirty >= ffdDirty {
		t.Errorf("measured: energy-aware dirty move %v !< FFD's %v", eaDirty, ffdDirty)
	}
}

// TestDatacenterPlanMovesVMTwice: validation accepts a plan that moves a
// VM on again after it has landed, so its serial timeline must run it.
func TestDatacenterPlanMovesVMTwice(t *testing.T) {
	s := planDC(5)
	s.Datacenter.Moves = []MoveSpec{
		{VM: "dirty", From: "drainme", To: "calm"},
		{VM: "dirty", From: "calm", To: "busy"},
	}
	rep := executePlan(t, s, 0)
	if len(rep.Timeline) != 2 {
		t.Fatalf("executed %d of 2 moves", len(rep.Timeline))
	}
	if second := rep.Timeline[1]; second.From != "calm" || second.To != "busy" || second.Start != rep.Timeline[0].End {
		t.Errorf("second move = %+v, want calm->busy starting when the first landed", second)
	}
}

// TestDatacenterEmptyPlan: a data centre with nothing to consolidate
// compiles to an empty serial timeline, which executes trivially.
func TestDatacenterEmptyPlan(t *testing.T) {
	s := planDC(3)
	s.Datacenter.Hosts[1].VMs = nil
	s.Datacenter.Hosts[2].VMs = nil
	rep := executePlan(t, s, 0)
	if len(rep.Timeline) != 0 || rep.TotalEnergy != 0 || rep.Makespan != 0 {
		t.Errorf("empty plan measured %d moves, %v, %v", len(rep.Timeline), rep.TotalEnergy, rep.Makespan)
	}
}

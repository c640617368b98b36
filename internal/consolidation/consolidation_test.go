package consolidation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

// stubModel prices migrations with the qualitative behaviour of WAVM3:
// cost grows with memory, dirty ratio (live retransmission) and target
// load (reduced bandwidth → longer transfer).
type stubModel struct {
	calls int
}

func (s *stubModel) Cost(vm VMState, srcBusy, dstBusy float64) (MigrationCost, error) {
	s.calls++
	gb := float64(vm.MemBytes) / float64(units.GiB)
	expansion := 1 + 2*float64(vm.DirtyRatio)
	slowdown := 1 + dstBusy/32 + srcBusy/64
	joules := 15_000 * gb * expansion * slowdown
	return MigrationCost{
		Energy:   units.Joules(joules),
		Duration: time.Duration(40 * expansion * slowdown * float64(time.Second)),
	}, nil
}

func gib(n int) units.Bytes { return units.Bytes(n) * units.GiB }

// smallDC: three hosts; host c runs one small VM and can be emptied.
func smallDC() []HostState {
	return []HostState{
		{Name: "a", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "db", MemBytes: gib(4), BusyVCPUs: 8, DirtyRatio: 0.6},
			{Name: "web", MemBytes: gib(4), BusyVCPUs: 4, DirtyRatio: 0.1},
		}},
		{Name: "b", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "batch", MemBytes: gib(4), BusyVCPUs: 6, DirtyRatio: 0.05},
		}},
		{Name: "c", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "cache", MemBytes: gib(4), BusyVCPUs: 2, DirtyRatio: 0.9},
		}},
	}
}

func TestValidation(t *testing.T) {
	if err := (VMState{}).Validate(); err == nil {
		t.Error("empty VM must fail")
	}
	if err := (VMState{Name: "x", MemBytes: 1, DirtyRatio: 2}).Validate(); err == nil {
		t.Error("bad dirty ratio must fail")
	}
	if err := (HostState{}).Validate(); err == nil {
		t.Error("empty host must fail")
	}
	dup := HostState{Name: "h", Threads: 4, MemBytes: gib(8), IdlePower: 100, VMs: []VMState{
		{Name: "v", MemBytes: 1, BusyVCPUs: 1}, {Name: "v", MemBytes: 1, BusyVCPUs: 1},
	}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate VM on host must fail")
	}
	if err := validateHosts([]HostState{smallDC()[0]}); err == nil {
		t.Error("single host must fail")
	}
	two := smallDC()[:2]
	two[1].VMs = append(two[1].VMs, two[0].VMs[0]) // same VM on both hosts
	if err := validateHosts(two); err == nil {
		t.Error("VM on two hosts must fail")
	}
}

func TestHostAccounting(t *testing.T) {
	h := smallDC()[0]
	if h.BusyThreads() != 12 {
		t.Errorf("busy = %v, want 12", h.BusyThreads())
	}
	if h.UsedMem() != gib(8) {
		t.Errorf("used mem = %v, want 8 GiB", h.UsedMem())
	}
}

func TestEnergyAwareEmptiesLeastLoadedHost(t *testing.T) {
	model := &stubModel{}
	plan, err := EnergyAware{Model: model}.Plan(smallDC(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Host c (one 2-vCPU VM) is the cheapest to empty and must be freed.
	if len(plan.FreedHosts) == 0 {
		t.Fatal("plan freed no hosts")
	}
	freedC := false
	for _, f := range plan.FreedHosts {
		if f == "c" {
			freedC = true
		}
	}
	if !freedC {
		t.Errorf("freed %v, expected the least-loaded host c among them", plan.FreedHosts)
	}
	if plan.IdleSavings != 440*units.Watts(len(plan.FreedHosts)) {
		t.Errorf("idle savings = %v", plan.IdleSavings)
	}
	if plan.MigrationEnergy <= 0 {
		t.Error("moves must have positive energy")
	}
	// The input state is never mutated.
	dc := smallDC()
	if len(dc[2].VMs) != 1 {
		t.Error("input mutated")
	}
	// Payback is well-defined.
	pb, err := plan.Payback()
	if err != nil {
		t.Fatal(err)
	}
	if pb <= 0 {
		t.Errorf("payback = %v", pb)
	}
	if model.calls == 0 {
		t.Error("cost model never consulted")
	}
}

func TestEnergyAwarePicksCheapestTarget(t *testing.T) {
	// Two possible targets: an idle-ish host and a busy host. The policy
	// must route the drained VM to the cheaper (less busy) target.
	hosts := []HostState{
		{Name: "drainme", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "vm", MemBytes: gib(4), BusyVCPUs: 2, DirtyRatio: 0.9},
		}},
		{Name: "calm", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "x", MemBytes: gib(4), BusyVCPUs: 4},
		}},
		{Name: "busy", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "y", MemBytes: gib(4), BusyVCPUs: 24},
		}},
	}
	plan, err := EnergyAware{Model: &stubModel{}}.Plan(hosts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var moved *Move
	for i := range plan.Moves {
		if plan.Moves[i].VM == "vm" {
			moved = &plan.Moves[i]
		}
	}
	if moved == nil {
		t.Fatal("vm was not moved")
	}
	if moved.To != "calm" {
		t.Errorf("high-DR VM routed to %q, want the calm host (paper's advice)", moved.To)
	}
}

func TestEnergyAwareRespectsCapacity(t *testing.T) {
	// Both potential targets are nearly full: the drain must be abandoned
	// and the plan empty.
	hosts := []HostState{
		{Name: "a", Threads: 8, MemBytes: gib(8), IdlePower: 300, VMs: []VMState{
			{Name: "v1", MemBytes: gib(4), BusyVCPUs: 4},
		}},
		{Name: "b", Threads: 8, MemBytes: gib(8), IdlePower: 300, VMs: []VMState{
			{Name: "v2", MemBytes: gib(4), BusyVCPUs: 7},
		}},
		{Name: "c", Threads: 8, MemBytes: gib(8), IdlePower: 300, VMs: []VMState{
			{Name: "v3", MemBytes: gib(4), BusyVCPUs: 7},
		}},
	}
	plan, err := EnergyAware{Model: &stubModel{}}.Plan(hosts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 || len(plan.FreedHosts) != 0 {
		t.Errorf("infeasible drain produced moves: %+v", plan)
	}
	if _, err := plan.Payback(); err == nil {
		t.Error("payback of a no-op plan must error")
	}
}

func TestEnergyAwareNeverWakesEmptyHost(t *testing.T) {
	hosts := []HostState{
		{Name: "a", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "v", MemBytes: gib(4), BusyVCPUs: 2},
		}},
		{Name: "empty", Threads: 32, MemBytes: gib(32), IdlePower: 440},
		{Name: "b", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "w", MemBytes: gib(4), BusyVCPUs: 4},
		}},
	}
	plan, err := EnergyAware{Model: &stubModel{}}.Plan(hosts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Moves {
		if m.To == "empty" {
			t.Errorf("policy woke an empty host: %+v", m)
		}
	}
}

func TestEnergyAwareMaxMoves(t *testing.T) {
	plan, err := EnergyAware{Model: &stubModel{}}.Plan(smallDC(), Config{MaxMoves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) > 1 {
		t.Errorf("plan has %d moves, cap was 1", len(plan.Moves))
	}
}

func TestEnergyAwareNeedsModel(t *testing.T) {
	if _, err := (EnergyAware{}).Plan(smallDC(), Config{}); err == nil {
		t.Error("missing model must fail")
	}
}

func TestFirstFitDecreasingMakesTheBadMove(t *testing.T) {
	// The paper's argument target: FFD's first-fit order sends the
	// high-dirty-ratio VM to the first host with room — the busy one —
	// while the energy-aware policy routes it to the calm host.
	hosts := []HostState{
		{Name: "busy", Threads: 32, MemBytes: gib(64), IdlePower: 440, VMs: []VMState{
			{Name: "y", MemBytes: gib(4), BusyVCPUs: 20},
		}},
		{Name: "calm", Threads: 32, MemBytes: gib(64), IdlePower: 440, VMs: []VMState{
			{Name: "x", MemBytes: gib(4), BusyVCPUs: 4},
		}},
		{Name: "drainme", Threads: 32, MemBytes: gib(64), IdlePower: 440, VMs: []VMState{
			{Name: "dirty", MemBytes: gib(4), BusyVCPUs: 2, DirtyRatio: 0.95},
		}},
	}
	ffd, err := FirstFitDecreasing{Model: &stubModel{}}.Plan(hosts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ea, err := EnergyAware{Model: &stubModel{}}.Plan(hosts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	findMove := func(p *Plan, vm string) *Move {
		for i := range p.Moves {
			if p.Moves[i].VM == vm {
				return &p.Moves[i]
			}
		}
		return nil
	}
	fm := findMove(ffd, "dirty")
	em := findMove(ea, "dirty")
	if fm == nil || em == nil {
		t.Fatalf("dirty VM not moved by both policies (ffd=%v ea=%v)", fm, em)
	}
	if fm.To != "busy" {
		t.Errorf("FFD routed dirty VM to %q; this topology should bait it to the busy host", fm.To)
	}
	if em.To != "calm" {
		t.Errorf("energy-aware routed dirty VM to %q, want the calm host", em.To)
	}
	if em.Cost.Energy >= fm.Cost.Energy {
		t.Errorf("energy-aware move (%v) must be cheaper than FFD's (%v)", em.Cost.Energy, fm.Cost.Energy)
	}
	if (FirstFitDecreasing{}).Name() != "first-fit-decreasing" ||
		(EnergyAware{}).Name() != "energy-aware" {
		t.Error("policy names wrong")
	}
}

func TestEnergyAwareHorizonGatesDrains(t *testing.T) {
	// With a one-second horizon no drain can amortise and the plan is
	// empty; with a generous horizon the same state consolidates.
	tight, err := EnergyAware{Model: &stubModel{}}.Plan(smallDC(), Config{Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Moves) != 0 {
		t.Errorf("1 s horizon still produced %d moves", len(tight.Moves))
	}
	wide, err := EnergyAware{Model: &stubModel{}}.Plan(smallDC(), Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Moves) == 0 {
		t.Error("24 h horizon should allow consolidation")
	}
}

func TestEnergyAwareNeverMovesVMTwice(t *testing.T) {
	plan, err := EnergyAware{Model: &stubModel{}}.Plan(smallDC(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range plan.Moves {
		if seen[m.VM] {
			t.Errorf("VM %q moved twice in one round", m.VM)
		}
		seen[m.VM] = true
	}
}

func TestFFDInfeasible(t *testing.T) {
	hosts := []HostState{
		{Name: "a", Threads: 2, MemBytes: gib(4), IdlePower: 100, VMs: []VMState{
			{Name: "v1", MemBytes: gib(4), BusyVCPUs: 2},
		}},
		{Name: "b", Threads: 2, MemBytes: gib(4), IdlePower: 100, VMs: []VMState{
			{Name: "v2", MemBytes: gib(4), BusyVCPUs: 2},
		}},
	}
	// CPUCap 0.9 makes every VM (2 of 1.8 allowed) unplaceable.
	if _, err := (FirstFitDecreasing{}).Plan(hosts, Config{}); err == nil {
		t.Error("unplaceable VM must fail")
	} else if !strings.Contains(err.Error(), "cannot place") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPlanAppliesToConsistentState(t *testing.T) {
	// Executing the plan against a copy must leave every VM placed exactly
	// once and freed hosts genuinely empty.
	plan, err := EnergyAware{Model: &stubModel{}}.Plan(smallDC(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	state := cloneHosts(smallDC())
	for _, m := range plan.Moves {
		vm, ok := removeVM(hostByName(state, m.From), m.VM)
		if !ok {
			t.Fatalf("move %v references VM not on its source", m)
		}
		dst := hostByName(state, m.To)
		dst.VMs = append(dst.VMs, vm)
	}
	count := 0
	for _, h := range state {
		count += len(h.VMs)
		for _, f := range plan.FreedHosts {
			if h.Name == f && len(h.VMs) != 0 {
				t.Errorf("freed host %s still has %d VMs", f, len(h.VMs))
			}
		}
	}
	if count != 4 {
		t.Errorf("VM count after plan = %d, want 4", count)
	}
}

// TestPlanInvariantsProperty fuzzes random data centres and checks the
// structural invariants of every produced plan: moves reference real VMs,
// no VM moves twice, freed hosts are genuinely empty after applying the
// plan, and no host exceeds its CPU cap or memory.
func TestPlanInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nHosts := 2 + rng.Intn(5)
		hosts := make([]HostState, nHosts)
		vmID := 0
		for i := range hosts {
			hosts[i] = HostState{
				Name:      fmt.Sprintf("h%d", i),
				Threads:   32,
				MemBytes:  gib(32),
				IdlePower: 440,
			}
			for v := 0; v < rng.Intn(4); v++ {
				hosts[i].VMs = append(hosts[i].VMs, VMState{
					Name:       fmt.Sprintf("vm%d", vmID),
					MemBytes:   gib(1 + rng.Intn(4)),
					BusyVCPUs:  float64(1 + rng.Intn(8)),
					DirtyRatio: units.Fraction(rng.Float64()),
				})
				vmID++
			}
		}
		cfg := Config{CPUCap: 0.9, Horizon: 24 * time.Hour}
		plan, err := EnergyAware{Model: &stubModel{}}.Plan(hosts, cfg)
		if err != nil {
			return false
		}
		// Apply the plan.
		state := cloneHosts(hosts)
		seen := map[string]bool{}
		for _, m := range plan.Moves {
			if seen[m.VM] {
				return false // moved twice
			}
			seen[m.VM] = true
			vm, ok := removeVM(hostByName(state, m.From), m.VM)
			if !ok {
				return false // move references a VM not on its source
			}
			dst := hostByName(state, m.To)
			if dst == nil {
				return false
			}
			dst.VMs = append(dst.VMs, vm)
		}
		// Post-plan feasibility.
		for _, h := range state {
			if h.BusyThreads() > float64(h.Threads)*cfg.CPUCap+1e-9 {
				return false
			}
			if h.UsedMem() > h.MemBytes {
				return false
			}
		}
		// Freed hosts are empty.
		for _, fh := range plan.FreedHosts {
			if len(hostByName(state, fh).VMs) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

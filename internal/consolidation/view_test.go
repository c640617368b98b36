package consolidation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/units"
)

// refill rebuilds v in place from hosts, the way the cluster engine
// maintains its one View across rounds: the arrays are truncated and
// re-filled, and the View's planning workspace survives.
func refill(v *View, hosts []HostState) {
	v.HostName, v.Threads, v.MemCap, v.IdlePower = v.HostName[:0], v.Threads[:0], v.MemCap[:0], v.IdlePower[:0]
	v.Down, v.Busy, v.Mem, v.VMStart, v.VMCount = v.Down[:0], v.Busy[:0], v.Mem[:0], v.VMStart[:0], v.VMCount[:0]
	v.VMName, v.VMMem, v.VMBusy, v.VMDirty = v.VMName[:0], v.VMMem[:0], v.VMBusy[:0], v.VMDirty[:0]
	v.NameOrdered = true
	for i, h := range hosts {
		v.AppendHost(h)
		if i > 0 && hosts[i-1].Name >= h.Name {
			v.NameOrdered = false
		}
	}
	v.SortOrder()
}

// randomHost draws one host with zero to three guests.
func randomHost(rng *rand.Rand, name string, vmSeq *int) HostState {
	h := HostState{Name: name, Threads: 32, MemBytes: gib(64), IdlePower: units.Watts(400 + rng.Intn(50))}
	for k := rng.Intn(4); k > 0; k-- {
		*vmSeq++
		h.VMs = append(h.VMs, VMState{
			Name:       fmt.Sprintf("vm%04d", *vmSeq),
			MemBytes:   gib(2 + rng.Intn(7)),
			BusyVCPUs:  0.5 + float64(rng.Intn(16))/2,
			DirtyRatio: units.Fraction(rng.Intn(20)) / 100,
		})
	}
	return h
}

// applyPlan executes a plan against a host list: each move detaches its
// VM from the source and appends it to the target.
func applyPlan(t *testing.T, hosts []HostState, plan *Plan) {
	t.Helper()
	at := map[string]int{}
	for i, h := range hosts {
		at[h.Name] = i
	}
	for _, m := range plan.Moves {
		src, dst := &hosts[at[m.From]], &hosts[at[m.To]]
		vm, ok := removeVMSlice(&src.VMs, m.VM)
		if !ok {
			t.Fatalf("plan moves %s off %s, which does not hold it", m.VM, m.From)
		}
		dst.VMs = append(dst.VMs, vm)
	}
}

// clonePlan deep-copies a plan, so a later mutation of its slices shows.
func clonePlan(p *Plan) *Plan {
	c := *p
	c.Moves = append([]Move(nil), p.Moves...)
	c.FreedHosts = append([]string(nil), p.FreedHosts...)
	return &c
}

// TestPlanViewReuseParity plans an evolving fleet round after round
// through one reused View — whose workspace carries over between calls —
// and demands every plan deep-equal the plan of a fresh NewView of the
// same state. Each round also checks the one-shot Plan door against it:
// the same moves and migration energy, plus the fleet summary PlanView
// leaves empty — every live host the moves leave empty, in name order,
// and their idle-power sum. The rounds cover evacuations, MaxMoves
// cut-offs, pinned VMs, a View whose index order is not name order, and
// a host count that grows and shrinks. Earlier plans must not change
// under later calls.
func TestPlanViewReuseParity(t *testing.T) {
	policies := []struct {
		name string
		p    ViewPolicy
	}{
		{"energy-aware/order-scan", EnergyAware{Model: HeuristicCost{}}},
		{"energy-aware/linear-scan", EnergyAware{Model: &stubModel{}}},
		{"first-fit-decreasing", FirstFitDecreasing{Model: HeuristicCost{}}},
	}
	for _, tc := range policies {
		p := tc.p
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			vmSeq, hostSeq := 0, 0
			newHost := func() HostState {
				hostSeq++
				return randomHost(rng, fmt.Sprintf("h%03d", hostSeq), &vmSeq)
			}
			var hosts []HostState
			for i := 0; i < 48; i++ {
				hosts = append(hosts, newHost())
			}
			reused := &View{}
			var kept []*Plan
			var keptCopies []*Plan
			var evacuated, capped, unordered, resized, summarized int
			for round := 0; round < 24; round++ {
				cfg := Config{Horizon: 24 * time.Hour, MaxMoves: []int{0, 3, 1, 0, 6}[round%5]}
				switch {
				case round%6 == 2: // grow
					for i := 0; i < 9; i++ {
						hosts = append(hosts, newHost())
					}
					resized++
				case round%6 == 5: // shrink
					hosts = hosts[:len(hosts)-7]
					resized++
				}
				if round%4 == 1 {
					// Crash a populated live host; its residents must move.
					for _, i := range rng.Perm(len(hosts)) {
						if h := &hosts[i]; !h.Down && len(h.VMs) > 0 {
							h.Down = true
							for _, g := range h.VMs {
								cfg.Evacuate = append(cfg.Evacuate, g.Name)
							}
							break
						}
					}
				}
				if round%3 == 0 {
					// Pin one resident somewhere (an in-flight migration).
					for _, i := range rng.Perm(len(hosts)) {
						if len(hosts[i].VMs) > 0 {
							cfg.Pinned = []string{hosts[i].VMs[0].Name}
							break
						}
					}
				}
				state := hosts
				if round%5 == 3 {
					// Same hosts, shuffled: index order is not name order.
					state = append([]HostState(nil), hosts...)
					rng.Shuffle(len(state), func(i, j int) { state[i], state[j] = state[j], state[i] })
					unordered++
				}

				want, err := p.PlanView(NewView(state), cfg)
				if err != nil {
					t.Fatalf("round %d: fresh view: %v", round, err)
				}
				refill(reused, state)
				got, err := p.PlanView(reused, cfg)
				if err != nil {
					t.Fatalf("round %d: reused view: %v", round, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: reused-view plan differs from a fresh view's\n got %+v\nwant %+v", round, got, want)
				}
				if got.FreedHosts != nil || got.IdleSavings != 0 {
					t.Fatalf("round %d: PlanView filled the fleet summary: freed %v, savings %v", round, got.FreedHosts, got.IdleSavings)
				}
				oneShot, err := p.Plan(state, cfg)
				if err != nil {
					t.Fatalf("round %d: one-shot Plan: %v", round, err)
				}
				if !reflect.DeepEqual(oneShot.Moves, got.Moves) || oneShot.MigrationEnergy != got.MigrationEnergy {
					t.Fatalf("round %d: one-shot Plan differs from PlanView\n got %+v\nwant %+v", round, oneShot, got)
				}
				after := cloneHosts(state)
				applyPlan(t, after, oneShot)
				var freed []string
				var savings units.Watts
				for _, h := range after {
					if len(h.VMs) == 0 && !h.Down {
						freed = append(freed, h.Name)
						savings += h.IdlePower
					}
				}
				sort.Strings(freed)
				if !reflect.DeepEqual(oneShot.FreedHosts, freed) || oneShot.IdleSavings != savings {
					t.Fatalf("round %d: one-shot summary: freed %v (%v W), want %v (%v W)",
						round, oneShot.FreedHosts, oneShot.IdleSavings, freed, savings)
				}
				if len(freed) > 0 {
					summarized++
				}
				for _, m := range got.Moves {
					if len(cfg.Evacuate) > 0 && m.VM == cfg.Evacuate[0] {
						evacuated++
					}
				}
				if cfg.MaxMoves > 0 && len(got.Moves) == cfg.MaxMoves {
					capped++
				}
				kept = append(kept, got)
				keptCopies = append(keptCopies, clonePlan(got))

				applyPlan(t, hosts, want)
				// Keep the fleet busy: revive crashed hosts and repopulate
				// a few emptied ones.
				for i := range hosts {
					hosts[i].Down = false
					if len(hosts[i].VMs) == 0 && rng.Intn(3) == 0 {
						hosts[i].VMs = randomHost(rng, hosts[i].Name, &vmSeq).VMs
					}
				}
			}
			for i := range kept {
				if !reflect.DeepEqual(kept[i], keptCopies[i]) {
					t.Fatalf("round %d's plan changed under later planning calls", i)
				}
			}
			if evacuated == 0 || capped == 0 || unordered == 0 || resized == 0 || summarized == 0 {
				t.Fatalf("fixture drift: evacuated %d, capped %d, unordered %d, resized %d, summarized %d rounds",
					evacuated, capped, unordered, resized, summarized)
			}
		})
	}
}

// TestPlanViewAllocCeiling: planning a 10,000-host View again and again
// reuses the View's workspace, so a round allocates O(moves) — the plan,
// its moves, drain-order sorting — and nothing that scales with the host
// count. Both ceilings sit far below one word per host; the per-call
// workspace it replaces cost about 70 bytes per host. The sparse fleet,
// three hosts in four empty as on a rolling drain, pins that PlanView
// reports no freed-host list: one name per empty host would cost about
// 16 bytes per host.
func TestPlanViewAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	sparse := benchState(10000)
	for i := range sparse {
		if i%4 != 3 {
			sparse[i].VMs = nil
		}
	}
	for _, tc := range []struct {
		name  string
		hosts []HostState
	}{
		{"dense", benchState(10000)},
		{"sparse", sparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewView(tc.hosts)
			p := EnergyAware{Model: HeuristicCost{}}
			cfg := Config{Horizon: 24 * time.Hour, MaxMoves: 8}
			plan := func() {
				pl, err := p.PlanView(v, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(pl.Moves) != cfg.MaxMoves {
					t.Fatalf("fixture drift: %d moves, want %d", len(pl.Moves), cfg.MaxMoves)
				}
			}
			plan() // size the workspace
			const allocCeiling = 24
			allocs := testing.AllocsPerRun(50, plan)
			t.Logf("%.0f allocations per call", allocs)
			if allocs > allocCeiling {
				t.Errorf("repeated PlanView allocates %.0f times per call, ceiling is %d", allocs, allocCeiling)
			}
			const byteCeiling = 4 << 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const calls = 50
			for i := 0; i < calls; i++ {
				plan()
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("%d bytes per call", perCall)
			if perCall > byteCeiling {
				t.Errorf("repeated PlanView allocates %d bytes per call at 10,000 hosts, ceiling is %d", perCall, byteCeiling)
			}
		})
	}
}

package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomFleet builds a seeded random — but always valid — cluster
// timeline: single-switch machine mix, phased guests, and either an
// explicit concurrent move schedule or a periodic policy. Dirty ratios
// stay low so every lowered migration is a cheap CPU-type kernel run.
func randomFleet(r *rand.Rand) Config {
	machines := []string{"m01", "m02", "h1"} // all on one switch
	n := 4 + r.Intn(9)
	hosts := make([]Host, n)
	type placed struct{ vm, host string }
	var guests []placed
	for i := range hosts {
		name := fmt.Sprintf("rh%02d", i)
		hosts[i] = Host{Name: name, Machine: machines[r.Intn(len(machines))]}
		for v := 0; v < r.Intn(3); v++ {
			vm := VM{
				Name:       fmt.Sprintf("rv%02d-%d", i, v),
				MemBytes:   gib(2 + float64(r.Intn(3))),
				BusyVCPUs:  1 + float64(r.Intn(10)),
				DirtyRatio: units.Fraction(0.08 * r.Float64()),
			}
			for p := 0; p < r.Intn(3); p++ {
				kinds := workload.PhaseKinds()
				vm.Phases = append(vm.Phases, workload.Phase{
					Kind:     kinds[r.Intn(len(kinds))],
					Duration: time.Duration(30+r.Intn(270)) * time.Second,
					Level:    0.3 + r.Float64(),
					Peak:     0.5 + 1.5*r.Float64(),
				})
			}
			hosts[i].VMs = append(hosts[i].VMs, vm)
			guests = append(guests, placed{vm.Name, name})
		}
	}
	cfg := Config{
		Kind:  migration.Live,
		Hosts: hosts,
		Seed:  r.Int63n(1 << 32),
	}
	if len(guests) >= 2 && r.Intn(3) == 0 {
		// Policy variant: periodic re-planning over the random fleet.
		if r.Intn(2) == 0 {
			cfg.Policy = consolidation.EnergyAware{Model: consolidation.HeuristicCost{}}
		} else {
			cfg.Policy = consolidation.FirstFitDecreasing{Model: consolidation.HeuristicCost{}}
		}
		cfg.PolicyConfig = consolidation.Config{Horizon: 24 * time.Hour, MaxMoves: 1 + r.Intn(4)}
		cfg.Tick = time.Duration(30+r.Intn(60)) * time.Second
		cfg.Horizon = time.Duration(2+r.Intn(3)) * time.Minute
		return cfg
	}
	// Explicit variant: a random subset of guests each moves once, at a
	// random instant; same-instant moves contend on the shared switch.
	for _, g := range guests {
		if r.Intn(2) == 1 {
			continue
		}
		to := g.host
		for to == g.host {
			to = hosts[r.Intn(n)].Name
		}
		cfg.Moves = append(cfg.Moves, TimedMove{
			VM: g.vm, From: g.host, To: to,
			At: time.Duration(r.Intn(4800)) * 50 * time.Millisecond,
		})
	}
	if len(cfg.Moves) == 0 && len(guests) > 0 {
		g := guests[0]
		to := g.host
		for to == g.host {
			to = hosts[r.Intn(n)].Name
		}
		cfg.Moves = append(cfg.Moves, TimedMove{VM: g.vm, From: g.host, To: to})
	}
	return cfg
}

// injectFailures adds a random failure schedule to a generated fleet:
// 1–2 host crashes and up to 2 flight-aborts always, plus an outage
// window on explicit variants (policies plan moves during outages,
// which the engine refuses by design — outage fleets stay explicit).
// Explicit moves are repaired where the schedule statically dooms them:
// moves into a crashed host are dropped, moves inside an outage window
// slip to the restore instant.
func injectFailures(r *rand.Rand, cfg *Config) {
	horizon := cfg.Horizon
	if horizon == 0 {
		for _, m := range cfg.Moves {
			if m.At > horizon {
				horizon = m.At
			}
		}
		horizon += 4 * time.Minute
	}
	var vms []string
	for _, h := range cfg.Hosts {
		for _, v := range h.VMs {
			vms = append(vms, v.Name)
		}
	}
	perm := r.Perm(len(cfg.Hosts))
	for k := 0; k < 1+r.Intn(2) && k < len(perm); k++ {
		host := cfg.Hosts[perm[k]].Name
		at := time.Duration(r.Int63n(int64(horizon)))
		cfg.Failures = append(cfg.Failures, FailureEvent{At: at, Kind: FailHostCrash, Host: host})
		kept := cfg.Moves[:0]
		for _, m := range cfg.Moves {
			if m.To == host && m.At >= at {
				continue
			}
			kept = append(kept, m)
		}
		cfg.Moves = kept
	}
	for k := r.Intn(3); k > 0 && len(vms) > 0; k-- {
		cfg.Failures = append(cfg.Failures, FailureEvent{
			At:   time.Duration(r.Int63n(int64(horizon))),
			Kind: FailFlightAbort,
			VM:   vms[r.Intn(len(vms))],
		})
	}
	if cfg.Policy == nil && r.Intn(2) == 0 {
		// All generator machines share one switch domain.
		const sw = "Cisco Catalyst 3750"
		a := time.Duration(r.Int63n(int64(horizon)))
		b := a + time.Duration(10+r.Intn(50))*time.Second
		cfg.Failures = append(cfg.Failures,
			FailureEvent{At: a, Kind: FailSwitchOutage, Switch: sw},
			FailureEvent{At: b, Kind: FailSwitchRestore, Switch: sw},
		)
		for i := range cfg.Moves {
			if cfg.Moves[i].At >= a && cfg.Moves[i].At < b {
				cfg.Moves[i].At = b
			}
		}
	}
}

// runWith runs cfg as Run runs an event-loop timeline, with two
// test-side substitutions: linear installs the linear-scan reference
// scheduler (reference_test.go) in place of the heap scheduler, and
// oracle wraps the policy in planOracle.
func runWith(cfg Config, linear, oracle bool) (*Report, error) {
	var o *planOracle
	if oracle && cfg.Policy != nil {
		o = &planOracle{ViewPolicy: cfg.Policy}
		cfg.Policy = o
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if o != nil {
		o.e = e
	}
	if linear {
		e.sched = &linearSched{e: e}
	}
	return e.run()
}

// planOracle is a ViewPolicy around a production policy that checks
// every planning round's input and output against the AoS form of the
// same instant, e.snapshot(e.now):
//
//   - the engine's incrementally maintained view, host by host, and its
//     Order, against the view NewView builds from the snapshot;
//   - Pinned and Evacuate, against lists recomputed host by host;
//   - the moves and their energy, against the one-shot Plan door run on
//     the snapshot.
//
// A mismatch fails the round with an error, so the run's outcome
// differs from production's. After delegating, the oracle flags the
// plan input as changed, so the run never reuses a clean tick's plan.
type planOracle struct {
	consolidation.ViewPolicy
	e *engine
}

func (o *planOracle) PlanView(v *consolidation.View, cfg consolidation.Config) (*consolidation.Plan, error) {
	e := o.e
	snap := e.snapshot(e.now)
	if err := sameView(v, consolidation.NewView(snap)); err != nil {
		return nil, fmt.Errorf("oracle at t=%v: %w", e.now, err)
	}
	pinned, evac := snapshotPins(e)
	if !slices.Equal(cfg.Pinned, pinned) || !slices.Equal(cfg.Evacuate, evac) {
		return nil, fmt.Errorf("oracle at t=%v: pinned %v evacuate %v, snapshot has %v and %v",
			e.now, cfg.Pinned, cfg.Evacuate, pinned, evac)
	}
	plan, err := o.ViewPolicy.PlanView(v, cfg)
	want, wantErr := o.ViewPolicy.Plan(snap, cfg)
	e.viewEvents = true
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		return nil, fmt.Errorf("oracle at t=%v: PlanView error %v, Plan door error %v", e.now, err, wantErr)
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(plan.Moves, want.Moves) || plan.MigrationEnergy != want.MigrationEnergy {
		return nil, fmt.Errorf("oracle at t=%v: PlanView planned %+v (%v J), the Plan door %+v (%v J)",
			e.now, plan.Moves, plan.MigrationEnergy, want.Moves, want.MigrationEnergy)
	}
	return plan, nil
}

// snapshotPins walks the hosts the way a snapshot lists them and
// collects the round's pinned and evacuation names: movers and their
// destination reservations, and post-abort cool-downs, are pinned; the
// other residents of crashed hosts are evacuees.
func snapshotPins(e *engine) (pinned, evacuate []string) {
	for _, h := range e.hosts {
		for _, v := range h.vms {
			switch {
			case v.migrating:
				pinned = append(pinned, v.Name)
			case h.down:
				evacuate = append(evacuate, v.Name)
			case e.fail.repin[v.Name]:
				pinned = append(pinned, v.Name)
			}
		}
		for _, f := range h.incoming {
			pinned = append(pinned, f.resName)
		}
	}
	sort.Strings(pinned)
	sort.Strings(evacuate)
	return pinned, evacuate
}

// sameView compares two views as a policy reads them: host by host,
// each host's fields, aggregates and slot range contents, then Order.
// Where a host's range sits in the arena is layout, not content.
func sameView(got, want *consolidation.View) error {
	if len(got.HostName) != len(want.HostName) || got.NameOrdered != want.NameOrdered {
		return fmt.Errorf("view has %d hosts (name-ordered %v), snapshot %d (%v)",
			len(got.HostName), got.NameOrdered, len(want.HostName), want.NameOrdered)
	}
	type host struct {
		Name      string
		Threads   int
		MemCap    units.Bytes
		IdlePower units.Watts
		Down      bool
		Busy      float64
		Mem       units.Bytes
		VMs       []consolidation.VMState
	}
	at := func(v *consolidation.View, i int) host {
		h := host{v.HostName[i], v.Threads[i], v.MemCap[i], v.IdlePower[i], v.Down[i], v.Busy[i], v.Mem[i], nil}
		for k := v.VMStart[i]; k < v.VMStart[i]+v.VMCount[i]; k++ {
			h.VMs = append(h.VMs, consolidation.VMState{Name: v.VMName[k], MemBytes: v.VMMem[k], BusyVCPUs: v.VMBusy[k], DirtyRatio: v.VMDirty[k]})
		}
		return h
	}
	for i := range got.HostName {
		if g, w := at(got, i), at(want, i); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("view host %d is %+v, snapshot has %+v", i, g, w)
		}
	}
	if !slices.Equal(got.Order, want.Order) {
		return fmt.Errorf("view Order %v, snapshot Order %v", got.Order, want.Order)
	}
	return nil
}

// TestSchedulerEquivalence is the engine's safety net: on randomized
// fleets, three runs must produce bit-identical reports — the same
// MigrationRecord stream, tick records, shifts, stretches, energies,
// aborts and SLO scores:
//
//   - production: the heap scheduler planning through the
//     incrementally maintained view, reusing clean ticks' plans;
//   - the heap scheduler under planOracle, which checks every round's
//     view, pinned lists and plan against the AoS snapshot and the
//     one-shot Plan door, and never reuses a plan;
//   - the linear-scan reference scheduler under planOracle.
//
// The second half of the fleets inject random failure schedules
// (crashes, flight-aborts, outage windows), so the equivalence covers
// the abort paths too — crash, abort and outage events must dirty
// exactly the hosts they touch, or the oracle's view check fails. A
// fleet where planning legitimately fails must fail identically on
// every path.
func TestSchedulerEquivalence(t *testing.T) {
	cache := sim.NewCache(0)
	r := rand.New(rand.NewSource(20260728))
	fleets, aborted, checkedRounds := 0, 0, 0
	for i := 0; i < 22; i++ {
		cfg := randomFleet(r)
		if i >= 10 {
			injectFailures(r, &cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fleet %d: generator produced an invalid config: %v", i, err)
		}
		cfg.Cache = cache
		want, errFast := Run(cfg)
		checked, errChecked := runWith(cfg, false, true)
		got, errRef := runWith(cfg, true, true)
		if (errFast == nil) != (errRef == nil) || (errFast == nil) != (errChecked == nil) ||
			(errFast != nil && (errFast.Error() != errRef.Error() || errFast.Error() != errChecked.Error())) {
			t.Fatalf("fleet %d: runs disagree on failure:\nproduction: %v\nheap+oracle: %v\nscan+oracle: %v", i, errFast, errChecked, errRef)
		}
		if errFast != nil {
			continue
		}
		if !reflect.DeepEqual(want, checked) {
			t.Errorf("fleet %d (policy=%v, %d moves, %d failures): production and oracle-checked reports differ:\nproduction: %+v\nchecked: %+v",
				i, cfg.Policy != nil, len(cfg.Moves), len(cfg.Failures), want, checked)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("fleet %d (policy=%v, %d moves, %d failures): heap and linear-scan reports differ:\nheap: %+v\nscan: %+v",
				i, cfg.Policy != nil, len(cfg.Moves), len(cfg.Failures), want, got)
		}
		if len(want.Timeline) > 0 {
			fleets++
		}
		aborted += want.AbortedFlights
		checkedRounds += len(checked.Ticks) // the oracle checks every tick
	}
	if fleets < 10 {
		t.Fatalf("only %d of 22 random fleets migrated anything; generator drift weakens the property", fleets)
	}
	if aborted == 0 {
		t.Fatal("no random failure schedule ever aborted a flight; the abort paths went unexercised")
	}
	if checkedRounds == 0 {
		t.Fatal("no random fleet planned; the oracle checked nothing")
	}
	t.Logf("%d fleets migrated, %d flights aborted, %d planning rounds checked", fleets, aborted, checkedRounds)
}

// TestFleetSummaryFields checks the report's fleet-scale aggregates on
// a timeline with known structure: two same-instant moves on one
// switch give peak 2 and a stretch near 2; the policy fixture reports
// its rounds.
func TestFleetSummaryFields(t *testing.T) {
	rep, err := Run(explicitPair(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakFlights != 2 {
		t.Errorf("PeakFlights = %d, want 2 (both moves dispatch at t=0)", rep.PeakFlights)
	}
	if rep.MaxStretch <= 1.5 {
		t.Errorf("MaxStretch = %v, want ≈2 under a shared link", rep.MaxStretch)
	}
	if rep.ReplanRounds != 0 {
		t.Errorf("ReplanRounds = %d on an explicit timeline, want 0", rep.ReplanRounds)
	}

	pol, err := Run(policyFleet())
	if err != nil {
		t.Fatal(err)
	}
	if pol.ReplanRounds != len(pol.Ticks) || pol.ReplanRounds == 0 {
		t.Errorf("ReplanRounds = %d, want len(Ticks) = %d (non-zero)", pol.ReplanRounds, len(pol.Ticks))
	}
	if pol.PeakFlights <= 0 {
		t.Errorf("PeakFlights = %d on a consolidating timeline, want > 0", pol.PeakFlights)
	}
	if pol.MaxStretch < 1 {
		t.Errorf("MaxStretch = %v, want >= 1", pol.MaxStretch)
	}

	// Serial timelines run one migration at a time by construction.
	serial := Config{
		Kind: migration.Live,
		Pair: "m01-m02",
		Hosts: fleet("m01",
			[]VM{vmSpec("va", 4, 0.1)},
			nil,
		),
		Moves:  []TimedMove{{VM: "va", From: "h00", To: "h01"}},
		Serial: true,
		Seed:   9,
	}
	srep, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if srep.PeakFlights != 1 {
		t.Errorf("serial PeakFlights = %d, want 1", srep.PeakFlights)
	}
}

// TestClusterTickAllocCeiling8k scales the allocation gate to fleet
// size on the struct-of-arrays path: once the view arrays are sized, a
// steady-state incremental tick — refresh a few dirty hosts, repair the
// sorted order, rebuild the pinned lists — must allocate O(1),
// independent of the 8,192-host fleet. It measures zero; the small
// constant ceiling leaves room for incidental boxing, and anything that
// scales with the host count blows straight through it.
func TestClusterTickAllocCeiling8k(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	e, err := newEngine(sparseFleet(8192))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.pview.Order) != len(e.hosts) {
		t.Fatal("sparse fixture did not build the policy view")
	}
	tick := time.Duration(0)
	touch := func() {
		tick += 15 * time.Minute
		for i := 1; i <= 8; i++ {
			e.markHostDirty(e.hosts[(i*997)%len(e.hosts)])
		}
		if !e.viewTick(tick) {
			t.Fatal("a dirty tick reported itself clean")
		}
		e.viewPinnedEvac()
	}
	touch() // size the scratch buffers
	const ceiling = 8
	allocs := testing.AllocsPerRun(50, touch)
	if allocs > ceiling {
		t.Errorf("steady-state view tick allocates %.0f times, ceiling is %d", allocs, ceiling)
	}
}

// TestEngineBuildAllocCeiling pins what building a 100,000-host engine
// allocates. Config.check resolves every host straight into the runtime
// slab, and the engine finds hosts through check's name index, so the
// fleet exists once; the engine keeps no per-round AoS snapshot scratch.
// Both ceilings sit about a fifth above the measured build (37.6 MB and
// 422 objects): a second fleet copy trips the byte ceiling, and a
// re-added host-name map (its table is many objects) the object ceiling.
func TestEngineBuildAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	cfg := sparseFleet(100000)
	if _, err := newEngine(cfg); err != nil { // warm lazily built state
		t.Fatal(err)
	}
	const builds = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.pview.Order) != len(e.hosts) {
			t.Fatal("sparse fixture did not build the policy view")
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / builds
	objects := (after.Mallocs - before.Mallocs) / builds
	t.Logf("%d bytes and %d objects per build", bytes, objects)
	const byteCeiling, objectCeiling = 45 << 20, 500
	if bytes > byteCeiling {
		t.Errorf("building the 100k-host engine allocates %d bytes, ceiling is %d", bytes, byteCeiling)
	}
	if objects > objectCeiling {
		t.Errorf("building the 100k-host engine allocates %d objects, ceiling is %d", objects, objectCeiling)
	}
}

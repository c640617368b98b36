package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
)

// TestViewOrderRepair drives the incremental Order repair through its
// edge cases on a fleet built for ties: after every tick, Order must
// equal a fresh full sort of the view. Demands come from a four-value
// set, so dirty hosts tie on busy with clean hosts on both sides of
// them and with each other.
func TestViewOrderRepair(t *testing.T) {
	var hosts []Host
	for i := 0; i < 48; i++ {
		h := Host{Name: fmt.Sprintf("h%02d", i), Machine: "m01"}
		if i%6 != 5 {
			h.VMs = []VM{{Name: fmt.Sprintf("v%02d", i), MemBytes: gib(2), BusyVCPUs: float64(i % 4)}}
		}
		hosts = append(hosts, h)
	}
	e, err := newEngine(Config{
		Kind:    migration.Live,
		Hosts:   hosts,
		Policy:  consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		Tick:    time.Minute,
		Horizon: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.pview.Order) != len(e.hosts) {
		t.Fatal("fixture did not build the policy view")
	}
	v := &e.pview
	now := time.Duration(0)
	tick := func(step string, wantRefresh bool) {
		t.Helper()
		now += time.Minute
		if got := e.viewTick(now); got != wantRefresh {
			t.Fatalf("%s: viewTick reported refresh=%v, want %v", step, got, wantRefresh)
		}
		fresh := consolidation.View{HostName: v.HostName, Busy: v.Busy}
		fresh.SortOrder()
		if !slices.Equal(v.Order, fresh.Order) {
			t.Fatalf("%s: repaired Order differs from a full sort\n got %v\nwant %v", step, v.Order, fresh.Order)
		}
	}
	// set gives host i's guest demand b and marks the host dirty.
	set := func(i int, b float64) {
		h := e.hosts[i]
		h.vms[0].BusyVCPUs = b
		e.markHostDirty(h)
	}

	tick("empty dirty set", false)

	e.markHostDirty(e.hosts[7])
	e.markHostDirty(e.hosts[5]) // an empty host
	tick("unchanged keys", true)

	// Host 6 (busy 2) drops to 1, between the busy-1 hosts below and
	// above its index; host 13 (busy 1) rises to 3, likewise.
	set(6, 1)
	set(13, 3)
	tick("ties with clean hosts", true)

	// Three dirty hosts land on one key, and one clean busy-0 host's
	// neighbours empty out to the empty hosts' key.
	set(2, 2)
	set(9, 2)
	set(40, 2)
	set(1, 0)
	set(3, 0)
	tick("ties among dirty hosts", true)

	// The lowest and highest index both move to the extremes.
	set(0, 3)
	set(46, 0)
	tick("extremes", true)

	rng := rand.New(rand.NewSource(3))
	for i := range e.hosts {
		if len(e.hosts[i].vms) > 0 {
			set(i, float64(rng.Intn(4)))
		} else {
			e.markHostDirty(e.hosts[i])
		}
	}
	tick("every host dirty", true)

	for round := 0; round < 40; round++ {
		for k := rng.Intn(6); k >= 0; k-- {
			if i := rng.Intn(len(e.hosts)); len(e.hosts[i].vms) > 0 {
				set(i, float64(rng.Intn(4)))
			} else {
				e.markHostDirty(e.hosts[i])
			}
		}
		tick(fmt.Sprintf("random round %d", round), true)
	}

	// A NaN demand, which VM.Validate lets through, has no place in the
	// policies' order; the repair must still keep Order a permutation of
	// the hosts.
	set(8, math.NaN())
	set(20, 1)
	now += time.Minute
	e.viewTick(now)
	set(8, 1)
	set(21, 2)
	now += time.Minute
	e.viewTick(now)
	perm := slices.Clone(v.Order)
	slices.Sort(perm)
	for i, x := range perm {
		if int(x) != i {
			t.Fatalf("after a NaN demand, Order is no permutation of the hosts: %v", v.Order)
		}
	}
}

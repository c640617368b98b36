package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// fleetSpec builds a minimal valid fleet-template cluster spec.
func fleetSpec() *Spec {
	return &Spec{
		Version: CurrentVersion,
		Name:    "fleet-under-test",
		Kind:    "live",
		Cluster: &ClusterSpec{
			HorizonS: 3600,
			TickS:    900,
			Policy:   PolicyEnergyAware,
			Fleet: []FleetGroupSpec{
				{Name: "web", Count: 6, Machine: "m01", PhaseJitterS: 600,
					VMs: []ClusterVMSpec{{Name: "fe", MemGiB: 4, BusyVCPUs: 4, DirtyRatio: 0.1,
						Phases: []PhaseSpec{{Kind: "diurnal", DurationS: 3600, Level: 0.3, Peak: 1}}}}},
				{Name: "idle", Count: 4, Machine: "m02",
					VMs: []ClusterVMSpec{{Name: "low", MemGiB: 4, BusyVCPUs: 1, DirtyRatio: 0.05}}},
			},
		},
	}
}

// compiledHosts compiles a valid spec and returns its expanded hosts.
func compiledHosts(t *testing.T, s *Spec) []cluster.Host {
	t.Helper()
	c, err := s.Compile()
	if err != nil {
		t.Fatalf("compiling %s: %v", s.Name, err)
	}
	return c.Cluster.Config.Hosts
}

func TestFleetExpansion(t *testing.T) {
	s := fleetSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid fleet spec rejected: %v", err)
	}
	hosts := compiledHosts(t, s)
	if len(hosts) != 10 || s.Cluster.hostCount() != 10 {
		t.Fatalf("expanded to %d hosts (hostCount %d), want 10", len(hosts), s.Cluster.hostCount())
	}
	if hosts[0].Name != "web-0000" || hosts[5].Name != "web-0005" || hosts[6].Name != "idle-0000" {
		t.Errorf("replica names drifted: %s, %s, %s", hosts[0].Name, hosts[5].Name, hosts[6].Name)
	}
	if hosts[0].VMs[0].Name != "fe-0000" || hosts[9].VMs[0].Name != "low-0003" {
		t.Errorf("VM names drifted: %s, %s", hosts[0].VMs[0].Name, hosts[9].VMs[0].Name)
	}
	if got := (hostAt{0, 0}).String(); got != "cluster.fleet[0].replica[0]" {
		t.Errorf("replica path label = %q", got)
	}
	// Jittered groups prepend a whole-second steady lead-in below the cap,
	// holding the diurnal timeline's entry intensity.
	jittered := 0
	seenLead := map[time.Duration]bool{}
	for _, h := range hosts[:6] {
		ph := h.VMs[0].Phases
		switch len(ph) {
		case 1: // zero jitter drawn — no lead-in
		case 2:
			lead := ph[0]
			if lead.Kind != workload.PhaseSteady || lead.Name != "lead-in" {
				t.Fatalf("lead-in shape drifted: %+v", lead)
			}
			if lead.Duration <= 0 || lead.Duration >= 600*time.Second || lead.Duration%time.Second != 0 {
				t.Errorf("lead-in duration %v outside (0, 600) whole seconds", lead.Duration)
			}
			if lead.Level != ph[1].Factor(0) {
				t.Errorf("lead-in level %v does not hold the entry factor %v", lead.Level, ph[1].Factor(0))
			}
			jittered++
			seenLead[lead.Duration] = true
		default:
			t.Fatalf("replica %s has %d phases", h.Name, len(ph))
		}
	}
	if jittered < 4 || len(seenLead) < 3 {
		t.Errorf("jitter is not spreading: %d jittered replicas, %d distinct lead-ins", jittered, len(seenLead))
	}
	// Unjittered group: template phases unchanged (none here — no phases).
	if len(hosts[6].VMs[0].Phases) != 0 {
		t.Errorf("unphased template grew phases: %+v", hosts[6].VMs[0].Phases)
	}

	// Deterministic: expansion is a pure function of the spec.
	if again := compiledHosts(t, fleetSpec()); !reflect.DeepEqual(hosts, again) {
		t.Error("two expansions of one spec differ")
	}

	// Seed-dependent: a different seed moves the lead-ins but not the
	// names.
	reseeded := fleetSpec()
	reseeded.Seed = 99991
	rh := compiledHosts(t, reseeded)
	if rh[0].Name != hosts[0].Name {
		t.Error("seed changed replica names")
	}
	moved := false
	for i := range rh[:6] {
		a, b := hosts[i].VMs[0].Phases, rh[i].VMs[0].Phases
		if len(a) != len(b) || (len(a) == 2 && a[0].Duration != b[0].Duration) {
			moved = true
		}
	}
	if !moved {
		t.Error("reseeding did not move any lead-in")
	}
}

// TestReplicaSuffix pins the replica name suffix: a dash and the index
// zero-padded to four digits, wider indices unpadded.
func TestReplicaSuffix(t *testing.T) {
	for _, i := range []int{0, 7, 42, 999, 1000, 9999, 10000, 131071} {
		if got, want := string(appendReplicaSuffix([]byte("app"), i)), fmt.Sprintf("app-%04d", i); got != want {
			t.Errorf("replica %d: suffix %q, want %q", i, got, want)
		}
	}
}

// TestFleetMovesAddressReplicas: explicit timed moves can reference
// stamped replica hosts and VMs.
func TestFleetMovesAddressReplicas(t *testing.T) {
	s := fleetSpec()
	s.Cluster.Policy = ""
	s.Cluster.TickS = 0
	s.Cluster.Moves = []TimedMoveSpec{
		{VM: "low-0001", From: "idle-0001", To: "idle-0000", AtS: 5},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("move addressing a replica rejected: %v", err)
	}
	s.Cluster.Moves[0].VM = "low-9999"
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown VM") {
		t.Fatalf("move to a non-existent replica: err = %v", err)
	}
}

func TestFleetValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad group name", func(s *Spec) { s.Cluster.Fleet[0].Name = "Web!" }, "cluster.fleet[0].name"},
		{"dup group name", func(s *Spec) { s.Cluster.Fleet[1].Name = "web" }, "cluster.fleet[1].name"},
		{"zero count", func(s *Spec) { s.Cluster.Fleet[0].Count = 0 }, "cluster.fleet[0].count"},
		{"count over cap", func(s *Spec) { s.Cluster.Fleet[0].Count = MaxFleetReplicas + 1 }, "cluster.fleet[0].count"},
		{"unknown machine", func(s *Spec) { s.Cluster.Fleet[0].Machine = "z9" }, "cluster.fleet[0].machine"},
		{"negative jitter", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = -1 }, "phase_jitter_s"},
		{"sub-second jitter", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = 0.5 }, "phase_jitter_s"},
		{"fractional jitter", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = 600.9 }, "whole number of seconds"},
		{"jitter without phases", func(s *Spec) { s.Cluster.Fleet[1].PhaseJitterS = 60 }, "no template VM has phases"},
		{"replica collides with explicit host", func(s *Spec) {
			s.Cluster.Hosts = []ClusterHostSpec{{Name: "web-0002", Machine: "m01",
				VMs: []ClusterVMSpec{{Name: "x", MemGiB: 4, BusyVCPUs: 1}}}}
		}, "duplicate host"},
		{"replica VM collides across groups", func(s *Spec) { s.Cluster.Fleet[1].VMs[0].Name = "fe" }, "already exists"},
		{"bad template VM", func(s *Spec) { s.Cluster.Fleet[0].VMs[0].MemGiB = 0 }, "mem_gib"},
	}
	for _, tc := range cases {
		s := fleetSpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetJitterStability pins the jitter derivation: committed fleet
// scenarios bake these offsets into their golden timelines, so the
// function must never drift.
func TestFleetJitterStability(t *testing.T) {
	// Distribution sanity on a committed-scenario-sized draw.
	seen := map[int64]bool{}
	for i := 0; i < 96; i++ {
		j := fleetJitter(12345, "web", i, 14400)
		if j < 0 || j >= 14400 {
			t.Fatalf("jitter %d outside [0, 14400)", j)
		}
		seen[j] = true
	}
	if len(seen) < 80 {
		t.Errorf("only %d distinct jitters across 96 replicas", len(seen))
	}
	// Anchor a few values: a change here silently rewrites every
	// committed fleet scenario's timeline.
	anchors := []struct {
		group string
		i     int
		want  int64
	}{
		{"web", 0, 10516},
		{"web", 1, 4451},
		{"web", 95, 4527},
		{"db", 0, 2275},
		{"db", 95, 3163},
	}
	for _, a := range anchors {
		if got := fleetJitter(12345, a.group, a.i, 14400); got != a.want {
			t.Errorf("fleetJitter(12345, %q, %d, 14400) = %d, want %d", a.group, a.i, got, a.want)
		}
	}
}

// TestFleetErrorParity pins the exact first failure — scenario, path and
// message — that invalid fleet specs report through Validate, Compile
// and Parse alike. Fleet expansion reports errors against per-replica
// paths, so any change to how the expansion walk is organised must keep
// the failure order and every label byte for byte.
func TestFleetErrorParity(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"duplicate replica name", func(s *Spec) {
			s.Cluster.Hosts = []ClusterHostSpec{{Name: "web-0002", Machine: "m01",
				VMs: []ClusterVMSpec{{Name: "x", MemGiB: 4, BusyVCPUs: 1}}}}
		},
			`scenario "fleet-under-test": cluster.fleet[0].replica[2].name: duplicate host "web-0002"`},
		{"duplicate replica VM", func(s *Spec) { s.Cluster.Fleet[1].VMs[0].Name = "fe" },
			`scenario "fleet-under-test": cluster.fleet[1].replica[0].vms[0].name: VM "fe-0000" already exists in the cluster`},
		{"bad template VM memory", func(s *Spec) { s.Cluster.Fleet[1].VMs[0].MemGiB = -2 },
			`scenario "fleet-under-test": cluster.fleet[1].replica[0].vms[0].mem_gib: must be positive, got -2`},
		{"bad template VM dirty ratio", func(s *Spec) { s.Cluster.Fleet[0].VMs[0].DirtyRatio = 1.5 },
			`scenario "fleet-under-test": cluster.fleet[0].replica[0].vms[0].dirty_ratio: 1.5 outside [0, 1]`},
		{"bad phase after lead-in", func(s *Spec) { s.Cluster.Fleet[0].VMs[0].Phases[0].Peak = -1 },
			`scenario "fleet-under-test": cluster.fleet[0].replica[0].vms[0].phases[1].peak: must be non-negative, got -1`},
		{"bad phase unjittered", func(s *Spec) {
			s.Cluster.Fleet[1].VMs[0].Phases = []PhaseSpec{{Kind: "ramp", DurationS: 0}}
		},
			`scenario "fleet-under-test": cluster.fleet[1].replica[0].vms[0].phases[0].duration_s: must be positive, got 0`},
		{"unknown move VM", func(s *Spec) {
			s.Cluster.Policy, s.Cluster.TickS = "", 0
			s.Cluster.Moves = []TimedMoveSpec{{VM: "fe-0006", From: "web-0000", To: "web-0001"}}
		},
			`scenario "fleet-under-test": cluster.moves[0].vm: unknown VM "fe-0006"`},
		{"unknown failure host", func(s *Spec) {
			s.Cluster.Failures = []FailureSpec{{AtS: 60, Kind: "host-crash", Host: "web-0006"}}
		},
			`scenario "fleet-under-test": cluster.failures[0].host: unknown host "web-0006"`},
		{"invalid compiled config", func(s *Spec) { s.Cluster.Fleet[1].Machine = "o1" },
			`scenario "fleet-under-test": (compiled): cluster: policy-driven timelines need all hosts on one switch; web-0000 is on "Cisco Catalyst 3750", idle-0000 on "HP 1810-8G"`},
		{"invalid compiled failure window", func(s *Spec) {
			s.Cluster.Failures = []FailureSpec{{AtS: 60, Kind: "switch-restore", Switch: "switch-m"}}
		},
			`scenario "fleet-under-test": (compiled): cluster: failure 0 references unknown switch "switch-m"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := fleetSpec()
			tc.mut(s)
			verr := s.Validate()
			var se *Error
			if !errors.As(verr, &se) {
				t.Fatalf("Validate: got %T %v, want a *scenario.Error", verr, verr)
			}
			if got := verr.Error(); got != tc.want {
				t.Errorf("Validate:\n got %s\nwant %s", got, tc.want)
			}
			if _, err := s.Compile(); err == nil || err.Error() != verr.Error() {
				t.Errorf("Compile: got %v, want %v", err, verr)
			}
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Parse(s.Name, b); err == nil || err.Error() != verr.Error() {
				t.Errorf("Parse: got %v, want %v", err, verr)
			}
		})
	}
}

// TestCompileAllocCeiling pins the allocation cost of parsing and
// compiling the library's 100,000-host fleet: one expansion walk per
// Validate or Compile, error-path labels formatted only on failure, and
// one resolve pass in the lowered config's validation. The ceilings sit
// about a fifth above the measured 302k allocations and 47 MB; expanding
// the fleet once more, or formatting a label per host, blows through
// them.
func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "drain-100k-rolling.json"))
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		s, err := Parse("drain-100k-rolling", data)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Cluster.Config.Hosts) != 100000 {
			t.Fatalf("fixture drift: %d hosts", len(c.Cluster.Config.Hosts))
		}
	}
	const allocCeiling = 360_000
	allocs := testing.AllocsPerRun(3, compile)
	t.Logf("%.0f allocations per Parse+Compile", allocs)
	if allocs > allocCeiling {
		t.Errorf("Parse+Compile allocates %.0f times, ceiling is %d", allocs, allocCeiling)
	}
	const byteCeiling = 54 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per Parse+Compile", perRun)
	if perRun > byteCeiling {
		t.Errorf("Parse+Compile allocates %d bytes, ceiling is %d", perRun, byteCeiling)
	}
}

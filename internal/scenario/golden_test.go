package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current library results")

// libraryDir locates the committed scenario library relative to this
// package.
const libraryDir = "../../scenarios"

// goldenBlock is the pinned outcome of one compiled migration block: the
// same BlockSummary wavm3scen prints, so the golden file pins exactly
// what the runner reports. Values are exact float64s — the simulator is
// deterministic, so equality is bitwise.
type goldenBlock = BlockSummary

// goldenMove is the pinned outcome of one executed plan move.
type goldenMove struct {
	VM        string  `json:"vm"`
	EnergyJ   float64 `json:"energy_j"`
	DurationS float64 `json:"duration_s"`
	Bytes     int64   `json:"bytes"`
}

// goldenClusterMove is the pinned outcome of one cluster-timeline
// migration: placement, timing, contention stretch and adjusted energy.
type goldenClusterMove struct {
	VM      string  `json:"vm"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Pair    string  `json:"pair"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	Stretch float64 `json:"stretch"`
	EnergyJ float64 `json:"energy_j"`
	Bytes   int64   `json:"bytes"`
}

// goldenTick pins one policy round: when it fired, how many moves it
// planned, and how many placement entries its snapshot pinned — the
// regression anchor for the Pinned-reconciliation fix.
type goldenTick struct {
	AtS    float64 `json:"at_s"`
	Moves  int     `json:"moves"`
	Pinned int     `json:"pinned"`
}

// goldenAbort pins one failure-killed migration.
type goldenAbort struct {
	VM      string  `json:"vm"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Phase   string  `json:"phase"`
	Reason  string  `json:"reason"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	EnergyJ float64 `json:"energy_j"`
}

// goldenCluster pins one cluster timeline: its migrations in dispatch
// order, the end state, and the fleet summary (peak concurrent
// flights, worst contention stretch, re-plan rounds). Policy scenarios
// also pin their tick records; chaos scenarios — the ones whose specs
// declare failures — additionally pin aborts and the SLO scores. All
// the extra fields are omitempty so failure-free entries keep their
// exact historical serialisation.
type goldenCluster struct {
	Timeline              []goldenClusterMove `json:"timeline"`
	TotalJ                float64             `json:"total_j"`
	MakespanS             float64             `json:"makespan_s"`
	Freed                 []string            `json:"freed,omitempty"`
	PeakFlights           int                 `json:"peak_flights,omitempty"`
	MaxStretch            float64             `json:"max_stretch,omitempty"`
	ReplanRounds          int                 `json:"replan_rounds,omitempty"`
	Ticks                 []goldenTick        `json:"ticks,omitempty"`
	Aborted               []goldenAbort       `json:"aborted,omitempty"`
	Orphaned              int                 `json:"orphaned,omitempty"`
	Evacuated             int                 `json:"evacuated,omitempty"`
	EvacuationDeadlineMet *bool               `json:"evacuation_deadline_met,omitempty"`
	FleetEnergyJ          float64             `json:"fleet_energy_j,omitempty"`
}

// Fleet-scale golden thresholds: clusters at or above summaryOnlyHosts
// pin summary aggregates only (per-move records at 8k–100k hosts would
// balloon golden.json without adding regression power beyond what the
// scheduler-equivalence and determinism properties already give); at or
// above raceSkipHosts the scenario is skipped under the race detector,
// whose instrumentation multiplies the wall-clock far past the suite's
// budget.
const (
	summaryOnlyHosts = 4096
	raceSkipHosts    = 32768
)

// goldenFleetSummary pins one fleet-scale cluster timeline by its
// summary aggregates: final energy, makespan, move and freed-host
// counts, peak concurrent flights and re-plan rounds.
type goldenFleetSummary struct {
	TotalJ       float64 `json:"total_j"`
	MakespanS    float64 `json:"makespan_s"`
	Moves        int     `json:"moves"`
	Freed        int     `json:"freed"`
	PeakFlights  int     `json:"peak_flights"`
	ReplanRounds int     `json:"replan_rounds"`
}

// golden pins the whole library: block label -> outcome, scenario name ->
// executed moves, scenario name -> cluster timeline (summary-only for
// fleet-scale clusters).
type golden struct {
	Blocks   map[string]goldenBlock        `json:"blocks"`
	Moves    map[string][]goldenMove       `json:"moves"`
	Clusters map[string]goldenCluster      `json:"clusters,omitempty"`
	Fleets   map[string]goldenFleetSummary `json:"fleets,omitempty"`

	// raceSkipped names the fleet scenarios this run skipped under the
	// race detector; comparison must not flag them as missing.
	raceSkipped map[string]bool
}

// runLibrary executes every committed scenario with a shared cache and
// returns the summarised outcomes.
func runLibrary(t *testing.T) *golden {
	t.Helper()
	specs, err := LoadDir(libraryDir)
	if err != nil {
		t.Fatalf("loading the committed library: %v", err)
	}
	if len(specs) < 10 {
		t.Fatalf("library has %d scenarios, the tentpole demands >= 10", len(specs))
	}
	cache := sim.NewCache(0)
	out := &golden{
		Blocks:      map[string]goldenBlock{},
		Moves:       map[string][]goldenMove{},
		Clusters:    map[string]goldenCluster{},
		Fleets:      map[string]goldenFleetSummary{},
		raceSkipped: map[string]bool{},
	}
	for _, s := range specs {
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("compiling %s: %v", s.Name, err)
		}
		if c.Cluster != nil {
			n := s.Cluster.hostCount()
			if raceEnabled && n >= raceSkipHosts {
				out.raceSkipped[s.Name] = true
				continue
			}
			cfg := c.Cluster.Config
			cfg.Cache = cache
			rep, err := cluster.Run(cfg)
			if err != nil {
				t.Fatalf("running cluster %s: %v", s.Name, err)
			}
			if n >= summaryOnlyHosts {
				out.Fleets[s.Name] = goldenFleetSummary{
					TotalJ:       float64(rep.TotalEnergy),
					MakespanS:    rep.Makespan.Seconds(),
					Moves:        len(rep.Timeline),
					Freed:        len(rep.FreedHosts),
					PeakFlights:  rep.PeakFlights,
					ReplanRounds: rep.ReplanRounds,
				}
				continue
			}
			gc := goldenCluster{
				TotalJ:       float64(rep.TotalEnergy),
				MakespanS:    rep.Makespan.Seconds(),
				Freed:        rep.FreedHosts,
				PeakFlights:  rep.PeakFlights,
				MaxStretch:   rep.MaxStretch,
				ReplanRounds: rep.ReplanRounds,
			}
			for _, mv := range rep.Timeline {
				gc.Timeline = append(gc.Timeline, goldenClusterMove{
					VM: mv.VM, From: mv.From, To: mv.To, Pair: mv.Pair,
					StartS: mv.Start.Seconds(), EndS: mv.End.Seconds(),
					Stretch: mv.Stretch, EnergyJ: float64(mv.Energy),
					Bytes: int64(mv.BytesSent),
				})
			}
			for _, tk := range rep.Ticks {
				gc.Ticks = append(gc.Ticks, goldenTick{
					AtS: tk.At.Seconds(), Moves: tk.Moves, Pinned: tk.Pinned,
				})
			}
			if len(s.Cluster.Failures) > 0 {
				for _, a := range rep.Aborted {
					gc.Aborted = append(gc.Aborted, goldenAbort{
						VM: a.VM, From: a.From, To: a.To,
						Phase: a.Phase, Reason: a.Reason,
						StartS: a.Start.Seconds(), EndS: a.End.Seconds(),
						EnergyJ: float64(a.Energy),
					})
				}
				gc.Orphaned = rep.OrphanedVMs
				gc.Evacuated = rep.EvacuatedVMs
				met := rep.EvacuationDeadlineMet
				gc.EvacuationDeadlineMet = &met
				gc.FleetEnergyJ = float64(rep.FleetEnergy)
			}
			out.Clusters[s.Name] = gc
			continue
		}
		if c.Plan != nil {
			cfg := c.Plan.Config
			cfg.Cache = cache
			rep, err := cluster.Run(cfg)
			if err != nil {
				t.Fatalf("executing %s: %v", s.Name, err)
			}
			for _, mv := range rep.Timeline {
				out.Moves[s.Name] = append(out.Moves[s.Name], goldenMove{
					VM:        mv.VM,
					EnergyJ:   float64(mv.Energy),
					DurationS: mv.Duration.Seconds(),
					Bytes:     int64(mv.BytesSent),
				})
			}
			continue
		}
		for _, r := range c.Runs {
			runs, err := cache.RunRepeatedWorkers(r.Scenario, r.MinRuns, r.VarianceTol, 0)
			if err != nil {
				t.Fatalf("running %s: %v", r.Label, err)
			}
			out.Blocks[r.Label] = Summarize(runs)
		}
	}
	return out
}

// TestLibraryGolden pins every committed scenario's measured outcome.
// The simulator is deterministic, so any drift here is a real behaviour
// change: inspect it, and if intended, regenerate with
//
//	go test ./internal/scenario/ -run TestLibraryGolden -update
func TestLibraryGolden(t *testing.T) {
	got := runLibrary(t)
	path := filepath.Join("testdata", "golden.json")

	if *updateGolden {
		if raceEnabled {
			t.Fatal("-update under -race would drop the race-skipped fleet scenarios; regenerate without -race")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d blocks and %d plans", path, len(got.Blocks), len(got.Moves))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (%v); run with -update to create it", err)
	}
	var want golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}

	var labels []string
	for l := range want.Blocks {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		g, ok := got.Blocks[l]
		if !ok {
			t.Errorf("block %q in golden file but not produced by the library", l)
			continue
		}
		if g != want.Blocks[l] {
			t.Errorf("block %q drifted:\n  got  %+v\n  want %+v", l, g, want.Blocks[l])
		}
	}
	for l := range got.Blocks {
		if _, ok := want.Blocks[l]; !ok {
			t.Errorf("new block %q not in golden file; run -update", l)
		}
	}
	for name, moves := range want.Moves {
		g, ok := got.Moves[name]
		if !ok {
			t.Errorf("plan %q in golden file but not produced", name)
			continue
		}
		if len(g) != len(moves) {
			t.Errorf("plan %q has %d moves, want %d", name, len(g), len(moves))
			continue
		}
		for i := range moves {
			if g[i] != moves[i] {
				t.Errorf("plan %q move %d drifted:\n  got  %+v\n  want %+v", name, i, g[i], moves[i])
			}
		}
	}
	for name := range got.Moves {
		if _, ok := want.Moves[name]; !ok {
			t.Errorf("new plan %q not in golden file; run -update", name)
		}
	}
	for name, gc := range want.Clusters {
		g, ok := got.Clusters[name]
		if !ok {
			t.Errorf("cluster %q in golden file but not produced", name)
			continue
		}
		if !reflect.DeepEqual(g, gc) {
			t.Errorf("cluster %q drifted:\n  got  %+v\n  want %+v", name, g, gc)
		}
	}
	for name := range got.Clusters {
		if _, ok := want.Clusters[name]; !ok {
			t.Errorf("new cluster %q not in golden file; run -update", name)
		}
	}
	for name, fs := range want.Fleets {
		if got.raceSkipped[name] {
			continue
		}
		g, ok := got.Fleets[name]
		if !ok {
			t.Errorf("fleet %q in golden file but not produced", name)
			continue
		}
		if g != fs {
			t.Errorf("fleet %q drifted:\n  got  %+v\n  want %+v", name, g, fs)
		}
	}
	for name := range got.Fleets {
		if _, ok := want.Fleets[name]; !ok {
			t.Errorf("new fleet %q not in golden file; run -update", name)
		}
	}
}

// TestLibraryRoundTrips is the CI gate behind `wavm3scen -check`: every
// committed scenario file must load strictly, validate and compile.
func TestLibraryRoundTrips(t *testing.T) {
	specs, err := LoadDir(libraryDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		c, err := s.Compile()
		if err != nil {
			t.Errorf("%s does not compile: %v", s.Name, err)
			continue
		}
		if len(c.Runs) == 0 && c.Plan == nil && c.Cluster == nil {
			t.Errorf("%s compiled to nothing", s.Name)
		}
		// Re-marshalling and re-loading must compile to identical runs —
		// the spec carries everything, nothing hides in Go state.
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s does not round-trip: %v", s.Name, err)
		}
		cb, err := back.Compile()
		if err != nil {
			t.Errorf("%s round-tripped spec does not compile: %v", s.Name, err)
			continue
		}
		for i := range c.Runs {
			if c.Runs[i].Scenario != cb.Runs[i].Scenario {
				t.Errorf("%s run %d changed across a JSON round-trip", s.Name, i)
			}
		}
		if c.Cluster != nil && !reflect.DeepEqual(c.Cluster, cb.Cluster) {
			t.Errorf("%s cluster timeline changed across a JSON round-trip", s.Name)
		}
	}
}

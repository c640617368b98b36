// Consolidation: drive the consolidation manager — the paper's motivating
// application and the remaining actor of its Figure 1 — with a trained
// WAVM3 estimator. The data-centre state comes from the scenario library
// (scenarios/consolidation-sweep.json) instead of being duplicated here:
// the same hosts that `wavm3scen` executes with the energy-blind
// first-fit-decreasing plan are planned here by the energy-aware policy,
// so the two tools price exactly the same sweep.
//
// Run from the repository root with: go run ./examples/consolidation
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"repro/internal/scenario"
	"repro/wavm3"
)

func main() {
	dir := flag.String("scenarios", "scenarios", "scenario library directory")
	flag.Parse()

	// The data centre under consolidation is declarative data.
	spec, err := scenario.Load(filepath.Join(*dir, "consolidation-sweep.json"))
	if err != nil {
		log.Fatal(err)
	}
	hosts := spec.HostStates()
	fmt.Printf("loaded %q: %d hosts\n", spec.Name, len(hosts))

	fmt.Println("training WAVM3 estimator...")
	est, err := wavm3.TrainEstimator(wavm3.TrainingConfig{Quick: true, RunsPerPoint: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, plan *wavm3.ConsolidationPlan) {
		fmt.Printf("\n%s policy:\n", name)
		if len(plan.Moves) == 0 {
			fmt.Println("  no moves")
			return
		}
		for _, m := range plan.Moves {
			fmt.Printf("  move %-12s %-10s -> %-10s  %7.1f kJ  %8s\n",
				m.VM, m.From, m.To, m.Cost.Energy.KiloJoules(), m.Cost.Duration.Round(1e9))
		}
		fmt.Printf("  freed hosts: %v (saves %.0f W idle)\n", plan.FreedHosts, float64(plan.IdleSavings))
		fmt.Printf("  total migration energy: %.1f kJ\n", plan.MigrationEnergy.KiloJoules())
		if pb, err := plan.Payback(); err == nil {
			fmt.Printf("  pays back in %s of saved idle power\n", pb.Round(1e9))
		}
	}

	ea, err := est.PlanConsolidation(hosts, wavm3.ConsolidationConfig{})
	if err != nil {
		log.Fatal(err)
	}
	show("energy-aware (WAVM3)", ea)

	ffd, err := est.PlanConsolidationFFD(hosts, wavm3.ConsolidationConfig{})
	if err != nil {
		log.Fatal(err)
	}
	show("first-fit-decreasing (energy-blind)", ffd)

	fmt.Printf("\nenergy-aware spends %.1f kJ vs FFD's %.1f kJ for its consolidation —\n",
		ea.MigrationEnergy.KiloJoules(), ffd.MigrationEnergy.KiloJoules())
	fmt.Println("the difference is mostly where the high-dirty-ratio cache lands.")
	fmt.Printf("\nto execute the energy-blind plan as measured migrations, run:\n")
	fmt.Printf("  go run ./cmd/wavm3scen %s\n", filepath.Join(*dir, "consolidation-sweep.json"))
}

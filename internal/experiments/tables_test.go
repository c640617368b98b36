package experiments

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/units"
)

// Shared test campaigns: the m- and o-pair campaigns behind the suite
// tests are by far their dominant cost, and every test reads the suite
// without mutating it (AblateLive clones before zeroing features), so they
// are run once per test binary and shared. The campaigns themselves use
// the default parallel runner; determinism of the result is covered by
// TestCampaignDeterministicAcrossWorkers.
var (
	smallSuiteMu sync.Mutex
	smallCampM   *Campaign
	smallCampO   *Campaign
	smallSuites  = map[bool]*Suite{}
)

// buildSmallSuite returns the cached suite for a reduced two-family
// campaign (CPU staircase for both kinds, dirty sweep for live) with all
// four models trained.
func buildSmallSuite(t *testing.T, withO bool) *Suite {
	t.Helper()
	smallSuiteMu.Lock()
	defer smallSuiteMu.Unlock()
	if s := smallSuites[withO]; s != nil {
		return s
	}
	cfg := Config{
		Pair:        hw.PairM,
		MinRuns:     3,
		VarianceTol: 0.9,
		Seed:        11,
		LoadLevels:  []int{0, 5, 8},
		DirtyLevels: []units.Fraction{0.05, 0.55, 0.95},
	}
	if smallCampM == nil {
		m, err := RunCampaign(cfg, CPULoadSource, CPULoadTarget, MemLoadVM)
		if err != nil {
			t.Fatal(err)
		}
		smallCampM = m
	}
	var o *Campaign
	if withO {
		if smallCampO == nil {
			ocfg := cfg
			ocfg.Pair = hw.PairO
			ocfg.Seed = 23
			ocfg.MinRuns = 2
			ocfg.LoadLevels = []int{0, 8}
			ocfg.DirtyLevels = []units.Fraction{0.55}
			oc, err := RunCampaign(ocfg, CPULoadSource, CPULoadTarget, MemLoadVM)
			if err != nil {
				t.Fatal(err)
			}
			smallCampO = oc
		}
		o = smallCampO
	}
	s, err := BuildSuite(smallCampM, o)
	if err != nil {
		t.Fatal(err)
	}
	smallSuites[withO] = s
	return s
}

func TestSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	s := buildSmallSuite(t, true)

	// Tables III / IV: coefficients exist for both hosts and all phases,
	// with physically sensible signs.
	for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
		ct, err := s.CoefficientTable(kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Rows) != 2 {
			t.Fatalf("%s has %d rows, want 2", ct.ID, len(ct.Rows))
		}
		for _, row := range ct.Rows {
			for name, pc := range map[string]core.PhaseCoeffs{
				"initiation": row.Initiation, "transfer": row.Transfer, "activation": row.Activation,
			} {
				if pc.C <= 0 {
					t.Errorf("%s %s/%s C = %v, want > 0 (idle power is in the bias)", ct.ID, row.Host, name, pc.C)
				}
				if pc.Alpha < 0 || pc.Beta < 0 || pc.Gamma < 0 || pc.Delta < 0 {
					t.Errorf("%s %s/%s has a negative slope: %+v", ct.ID, row.Host, name, pc)
				}
			}
		}
	}

	// Table V: NRMSE on both pairs, both kinds. The o-pair (trained on m,
	// bias-shifted) should be in a sane range, and every cell finite.
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Cells) != 8 { // 2 pairs × 2 kinds × 2 roles
		t.Fatalf("Table V has %d cells, want 8", len(t5.Cells))
	}
	for _, c := range t5.Cells {
		if c.NRMSE <= 0 || c.NRMSE > 1.5 {
			t.Errorf("Table V %s/%v/%v NRMSE = %v, implausible", c.Pair, c.Kind, c.Role, c.NRMSE)
		}
	}

	// Table VI: coefficients for all three baselines and both hosts.
	t6, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t6) != 6 {
		t.Fatalf("Table VI has %d rows, want 6", len(t6))
	}

	// Table VII: the paper's headline orderings.
	t7, err := s.Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(t7) != 8 { // 4 models × 2 hosts
		t.Fatalf("Table VII has %d rows, want 8", len(t7))
	}
	get := func(model, host string) ComparisonRow {
		for _, r := range t7 {
			if r.Model == model && r.Host == host {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", model, host)
		return ComparisonRow{}
	}
	for _, host := range []string{"Source", "Target"} {
		w := get(core.ModelName, host)
		h := get("HUANG", host)
		l := get("LIU", host)
		st := get("STRUNK", host)
		// Live migration: WAVM3 must beat HUANG (the paper's 24% headline)
		// and both workload-blind models.
		if w.Live.NRMSE >= h.Live.NRMSE {
			t.Errorf("%s live: WAVM3 NRMSE %.3f !< HUANG %.3f", host, w.Live.NRMSE, h.Live.NRMSE)
		}
		if w.Live.NRMSE >= l.Live.NRMSE {
			t.Errorf("%s live: WAVM3 NRMSE %.3f !< LIU %.3f", host, w.Live.NRMSE, l.Live.NRMSE)
		}
		if w.Live.NRMSE >= st.Live.NRMSE {
			t.Errorf("%s live: WAVM3 NRMSE %.3f !< STRUNK %.3f", host, w.Live.NRMSE, st.Live.NRMSE)
		}
		// Non-live: WAVM3 and HUANG are close (both CPU-aware); WAVM3 must
		// not lose to the workload-blind models.
		if w.NonLive.NRMSE >= l.NonLive.NRMSE {
			t.Errorf("%s non-live: WAVM3 NRMSE %.3f !< LIU %.3f", host, w.NonLive.NRMSE, l.NonLive.NRMSE)
		}
		// RMSE ≥ MAE sanity on every cell.
		for _, rep := range []struct{ mae, rmse float64 }{
			{w.Live.MAE, w.Live.RMSE}, {w.NonLive.MAE, w.NonLive.RMSE},
			{h.Live.MAE, h.Live.RMSE}, {l.Live.MAE, l.Live.RMSE}, {st.Live.MAE, st.Live.RMSE},
		} {
			if rep.rmse < rep.mae {
				t.Errorf("%s: RMSE %v < MAE %v", host, rep.rmse, rep.mae)
			}
		}
	}

	// The paper's secondary observation — HUANG degrades more from
	// non-live to live than WAVM3 — is not asserted by any test yet: on
	// this reduced sweep the NRMSE denominators per kind are too narrow
	// to compare reliably, so here we only require WAVM3's live advantage
	// over HUANG to be decisive on both hosts (checked above). A claim
	// suite over several campaign seeds is ROADMAP item 1.
}

func TestBuildSuiteValidation(t *testing.T) {
	if _, err := BuildSuite(nil, nil); err == nil {
		t.Error("nil campaign must fail")
	}
	if _, err := BuildSuite(&Campaign{Dataset: &core.Dataset{}}, nil); err == nil {
		t.Error("empty campaign must fail")
	}
}

func TestSuiteIdleDeltaNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	s := buildSmallSuite(t, false)
	// Moving from Opterons to Xeons lowers idle power: delta < 0, so the
	// C2 constants sit below C1 as in the paper.
	if s.IdleDelta >= 0 {
		t.Errorf("idle delta = %v, want negative (o-pair idles lower)", s.IdleDelta)
	}
	// Without an o-campaign Table V still produces the m-pair cells.
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Cells) != 4 {
		t.Errorf("m-only Table V has %d cells, want 4", len(t5.Cells))
	}
}

func TestAblateLive(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	s := buildSmallSuite(t, false)
	abs, err := AblateLive(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 5 {
		t.Fatalf("ablations = %d, want 5", len(abs))
	}
	byName := map[string]Ablation{}
	for _, a := range abs {
		byName[a.Variant] = a
	}
	full := byName["full"]
	// Removing the host-CPU regressor must hurt the most: it carries the
	// CPULOAD staircase.
	if byName["no-HostCPU"].NRMSE[core.Source] <= full.NRMSE[core.Source] {
		t.Errorf("no-HostCPU NRMSE %.4f should exceed full %.4f",
			byName["no-HostCPU"].NRMSE[core.Source], full.NRMSE[core.Source])
	}
	// Removing DR must hurt on the source (the dirtying happens there).
	if byName["no-DR"].NRMSE[core.Source] < full.NRMSE[core.Source] {
		t.Errorf("no-DR NRMSE %.4f should not beat full %.4f",
			byName["no-DR"].NRMSE[core.Source], full.NRMSE[core.Source])
	}
	// Every variant stays finite and positive.
	for _, a := range abs {
		for role, v := range a.NRMSE {
			if v <= 0 || v > 2 {
				t.Errorf("%s/%v NRMSE = %v, implausible", a.Variant, role, v)
			}
		}
	}
	if _, err := AblateLive(nil); err == nil {
		t.Error("nil suite must fail")
	}
}

func TestCrossValidateLive(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	s := buildSmallSuite(t, false)
	cv, err := s.CrossValidateLive(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range core.Roles() {
		m := cv.MeanNRMSE(role)
		if m <= 0 || m > 0.5 {
			t.Errorf("%v CV mean NRMSE = %v, implausible", role, m)
		}
	}
	if _, err := (&Suite{}).CrossValidateLive(3); err == nil {
		t.Error("suite without campaign must fail")
	}
}

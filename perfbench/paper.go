package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// paperScenarios are the library scenarios paper-cold runs beside the
// paper artefacts: the hot/cold dirtier, post-copy and a 1 Hz meter,
// which the paper's families do not exercise.
var paperScenarios = []string{"hotcold-db", "memstorm-postcopy", "meter-1hz"}

// quick sweep levels, as wavm3bench -quick sets them.
var (
	quickLoads = []int{0, 5, 8}
	quickDirty = []units.Fraction{0.05, 0.55, 0.95}
)

// paperCold regenerates the wavm3bench -quick artefact set at the
// paper's campaign seeds (wavm3bench's defaults) plus three library
// scenarios at seed-derived spec seeds, each pass on a fresh memory
// cache over a fresh DirStore. Seed 1 runs the library's own seeds,
// whose block summaries are held to golden.json.
//
// The campaign seeds stay fixed because the variance rule's repeat
// count follows the seed: across campaign seeds the pass's kernel work
// differs by a fifth, which would drown the speed signal.
type paperCold struct {
	seed   int64
	dir    string
	passes int
	specs  map[string][]byte
	golden map[string]scenario.BlockSummary
}

func (w *paperCold) setup() error {
	w.specs = map[string][]byte{}
	for _, name := range paperScenarios {
		b, err := os.ReadFile(filepath.Join("scenarios", name+".json"))
		if err != nil {
			return err
		}
		s, err := scenario.Parse(name, b)
		if err != nil {
			return err
		}
		s.Seed = s.EffectiveSeed() + (w.seed-1)*seedStride
		if b, err = json.Marshal(s); err != nil {
			return err
		}
		w.specs[name] = b
	}
	raw, err := os.ReadFile(filepath.Join("internal", "scenario", "testdata", "golden.json"))
	if err != nil {
		return err
	}
	var g struct {
		Blocks map[string]scenario.BlockSummary `json:"blocks"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	for _, name := range paperScenarios {
		if _, ok := g.Blocks[name]; !ok {
			return fmt.Errorf("golden.json has no block %q", name)
		}
	}
	w.golden = g.Blocks
	return nil
}

func (w *paperCold) configs(cache *sim.Cache) (m, o experiments.Config) {
	m = experiments.DefaultConfig(hw.PairM)
	o = experiments.DefaultConfig(hw.PairO)
	o.Seed = m.Seed + 1000
	for _, c := range []*experiments.Config{&m, &o} {
		c.Workers = workers
		c.Cache = cache
		c.MinRuns = 2
		c.VarianceTol = 0.9
		c.LoadLevels = quickLoads
		c.DirtyLevels = quickDirty
	}
	return m, o
}

func (w *paperCold) pass(tr *tracer) (*passResult, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("store-%d", w.passes))
	w.passes++
	defer os.RemoveAll(dir)

	t0 := time.Now()
	ds, err := sim.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	cache := newStoreCache(ds, tr)
	p := &passResult{}
	var out bytes.Buffer
	op := func(name string, f func() error) {
		p.ops++
		if err := f(); err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		}
	}
	mcfg, ocfg := w.configs(cache)

	op("fig2", func() error {
		var fig *experiments.Figure
		if err := tr.do("experiments.figure", func() (err error) {
			fig, err = experiments.Figure2(mcfg)
			return err
		}); err != nil {
			return err
		}
		return tr.do("report.render", func() error { return writeFigure(&out, fig) })
	})
	families := []experiments.Family{experiments.CPULoadSource, experiments.CPULoadTarget,
		experiments.MemLoadVM, experiments.MemLoadSource, experiments.MemLoadTarget}
	for i, f := range families {
		op(fmt.Sprintf("fig%d", i+3), func() error {
			var fig *experiments.Figure
			if err := tr.do("experiments.figure", func() error {
				prs, err := experiments.RunFamily(mcfg, f)
				if err != nil {
					return err
				}
				for _, pr := range prs {
					p.exact.addRuns(pr.Runs)
				}
				fig, err = experiments.FamilyFigure(f, prs)
				return err
			}); err != nil {
				return err
			}
			return tr.do("report.render", func() error { return writeFigure(&out, fig) })
		})
	}

	var mCamp, oCamp *experiments.Campaign
	op("campaigns", func() error {
		campaign := func(cfg experiments.Config) (c *experiments.Campaign, err error) {
			err = tr.do("experiments.campaign", func() error {
				c, err = experiments.RunCampaign(cfg,
					experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM)
				return err
			})
			if err == nil {
				for _, pr := range c.Results {
					p.exact.addRuns(pr.Runs)
				}
			}
			return c, err
		}
		var err error
		if mCamp, err = campaign(mcfg); err != nil {
			return err
		}
		oCamp, err = campaign(ocfg)
		return err
	})
	op("tables", func() error {
		if mCamp == nil || oCamp == nil {
			return fmt.Errorf("no campaigns to fit")
		}
		return writeTables(tr, &out, mCamp, oCamp)
	})

	for _, name := range paperScenarios {
		op(name, func() error { return w.runScenario(tr, &out, name, cache, &p.exact) })
	}

	if err := tr.do("store.close", cache.Close); err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: store close: %v\n", err)
	}
	p.wall = time.Since(t0)
	p.cache = cache.Snapshot()
	p.digest = sha256.Sum256(out.Bytes())
	return p, nil
}

// runScenario parses, compiles and executes one library scenario; at
// the library's own seeds it holds the block summaries to golden.json.
func (w *paperCold) runScenario(tr *tracer, out io.Writer, name string, cache *sim.Cache, ex *exactStats) error {
	var spec *scenario.Spec
	if err := tr.do("scenario.parse", func() (err error) {
		spec, err = scenario.Parse(name, w.specs[name])
		return err
	}); err != nil {
		return err
	}
	var c *scenario.Compiled
	if err := tr.do("scenario.compile", func() (err error) {
		c, err = spec.Compile()
		return err
	}); err != nil {
		return err
	}
	if _, err := execScenario(tr, out, c, cache); err != nil {
		return err
	}
	// Read the blocks back through the campaign runner (memory hits):
	// the same call and repeat policy Exec used.
	return tr.do("experiments.run", func() error {
		scs := make([]sim.Scenario, len(c.Runs))
		for i, r := range c.Runs {
			scs[i] = r.Scenario
		}
		res, err := experiments.RunScenarios(experiments.Config{
			Pair: scs[0].Pair, MinRuns: c.Runs[0].MinRuns, VarianceTol: c.Runs[0].VarianceTol,
			Workers: workers, Cache: cache, Seed: 1,
		}, scs...)
		if err != nil {
			return err
		}
		for i, r := range res {
			ex.addRuns(r.Runs)
			if w.seed != 1 {
				continue
			}
			if got, want := scenario.Summarize(r.Runs), w.golden[c.Runs[i].Label]; got != want {
				return fmt.Errorf("block %s: summary %+v, golden %+v", c.Runs[i].Label, got, want)
			}
		}
		return nil
	})
}

func (e *exactStats) addRuns(runs []*sim.RunResult) {
	for _, r := range runs {
		if n := len(r.Source.Samples); n > 0 {
			e.SimulatedS += r.Source.Samples[n-1].At.Seconds()
		}
		e.Rounds += float64(r.Rounds)
		e.GiBSent += float64(r.BytesSent) / float64(units.GiB)
	}
}

func writeFigure(w io.Writer, fig *experiments.Figure) error {
	if err := report.WriteFigure(w, fig, 25); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// writeTables fits the models and renders Tables III–VII, the ablation
// and the cross-validation exactly as wavm3bench prints them.
func writeTables(tr *tracer, w io.Writer, m, o *experiments.Campaign) error {
	var suite *experiments.Suite
	if err := tr.do("core.fit", func() (err error) {
		suite, err = experiments.BuildSuite(m, o)
		return err
	}); err != nil {
		return err
	}
	steps := []func() (func(io.Writer) error, error){
		func() (func(io.Writer) error, error) {
			return tableOf(report.CoeffTable)(suite.CoefficientTable(migration.NonLive))
		},
		func() (func(io.Writer) error, error) {
			return tableOf(report.CoeffTable)(suite.CoefficientTable(migration.Live))
		},
		func() (func(io.Writer) error, error) { return tableOf(report.NRMSETable)(suite.Table5()) },
		func() (func(io.Writer) error, error) { return tableOf(report.BaselineTable)(suite.Table6()) },
		func() (func(io.Writer) error, error) { return tableOf(report.ComparisonTable)(suite.Table7()) },
		func() (func(io.Writer) error, error) {
			abs, err := experiments.AblateLive(suite)
			return func(w io.Writer) error {
				fmt.Fprintln(w, "Feature ablation (live migration, NRMSE on test split):")
				for _, a := range abs {
					fmt.Fprintf(w, "  %-12s source %6.2f%%  target %6.2f%%\n", a.Variant,
						a.NRMSE[core.Source]*100, a.NRMSE[core.Target]*100)
				}
				_, err := fmt.Fprintln(w)
				return err
			}, err
		},
		func() (func(io.Writer) error, error) {
			return tableOf(report.CrossValTable)(suite.CrossValidateLive(4))
		},
	}
	for _, build := range steps {
		var render func(io.Writer) error
		if err := tr.do("core.fit", func() (err error) {
			render, err = build()
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("report.render", func() error { return render(w) }); err != nil {
			return err
		}
	}
	return nil
}

// tableOf adapts a result-and-error pair to a renderer of its table.
func tableOf[T any](table func(T) *report.Table) func(T, error) (func(io.Writer) error, error) {
	return func(v T, err error) (func(io.Writer) error, error) {
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error {
			if err := table(v).Write(w); err != nil {
				return err
			}
			_, err := fmt.Fprintln(w)
			return err
		}, nil
	}
}

// extras measures the dirtier directly and replays the pass's campaign
// scenarios through the bare kernel.
func (w *paperCold) extras(lm *layerMetrics) error {
	ns, ratio, err := memMicro(w.seed)
	if err != nil {
		return err
	}
	lm.set("mem.ns_per_write", ns)
	lm.set("mem.new_page_ratio", ratio)

	scs, err := replayScenarios(experiments.DefaultConfig(hw.PairM).Seed)
	if err != nil {
		return err
	}
	var steps, wall float64
	runMS, err := timeCalls(len(scs), func(i int) error {
		r, err := sim.RunCtx(context.Background(), scs[i])
		if err != nil {
			return err
		}
		if n := len(r.Source.Samples); n > 0 {
			steps += float64(r.Source.Samples[n-1].At / sim.Step)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, ms := range runMS {
		wall += ms / 1e3
	}
	lm.attempted += len(scs)
	lm.set("sim.run_ms_p50", median(runMS))
	lm.set("sim.steps_per_s", steps/wall)
	return nil
}

// replayScenarios builds the quick campaign's points on the m pair with
// experiments.Point.Scenario.
func replayScenarios(seed int64) ([]sim.Scenario, error) {
	var out []sim.Scenario
	for _, f := range []experiments.Family{experiments.CPULoadSource, experiments.CPULoadTarget,
		experiments.MemLoadVM, experiments.MemLoadSource, experiments.MemLoadTarget} {
		pts, err := experiments.Points(f)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			if !quickPoint(pt) {
				continue
			}
			sc, err := pt.Scenario(hw.PairM, seed+int64(len(out))*7919)
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
		}
	}
	return out, nil
}

func quickPoint(pt experiments.Point) bool {
	if pt.Family == experiments.MemLoadVM {
		for _, d := range quickDirty {
			if pt.DirtyRatio == d {
				return true
			}
		}
		return false
	}
	for _, l := range quickLoads {
		if pt.LoadVMs == l {
			return true
		}
	}
	return false
}

// memMicro drives the uniform and hot/cold dirtiers on a 4 GiB image at
// the quick sweep's pagedirtier rates, in 3 s log-dirty windows ended by
// CleanAll. It returns the median ns per page write over three reps and
// the share of writes that dirtied a clean page.
func memMicro(seed int64) (nsPerWrite, newRatio float64, err error) {
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		var writes, fresh int64
		var spent time.Duration
		for _, lv := range quickDirty {
			for _, hot := range []bool{false, true} {
				im, err := mem.NewImage(4 * units.GiB)
				if err != nil {
					return 0, 0, err
				}
				p := workload.PagedirtierProfile(lv)
				var d mem.Dirtier = mem.NewUniformDirtier(p.DirtyPagesPerSecond, p.WorkingSet, seed)
				if hot {
					p = workload.HotColdMemProfile(lv)
					d = mem.NewHotColdDirtier(p.DirtyPagesPerSecond, p.HotFrac, p.HotProb, seed)
				}
				t0 := time.Now()
				for win := 0; win < 10; win++ {
					for s := 0; s < 30; s++ {
						writes += d.Step(im, sim.Step.Seconds())
					}
					fresh += int64(im.DirtyPages())
					im.CleanAll()
				}
				spent += time.Since(t0)
			}
		}
		reps = append(reps, float64(spent.Nanoseconds())/float64(writes))
		newRatio = float64(fresh) / float64(writes)
	}
	return median(reps), newRatio, nil
}

func (w *paperCold) close() error { return nil }

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// fleetHosts is the smallest cluster fleet-warm runs.
const fleetHosts = 256

// seedStride separates the spec seeds of consecutive workload seeds;
// seed 1 runs the library's own seeds.
const seedStride = 1_000_003

// fleetWarm reruns the library's cluster timelines of fleetHosts hosts or
// more, at seed-derived spec seeds, each pass on a fresh memory cache
// over a directory store warmed during set-up.
type fleetWarm struct {
	seed   int64
	dir    string
	setups int
	names  []string
	specs  [][]byte // the generated spec JSON, one per timeline
	store  *sim.DirStore
}

// librarySpecs returns the library's specs by name and its catalog.
func librarySpecs() (map[string]*scenario.Spec, []scenario.Info, error) {
	specs, err := scenario.LoadDir("scenarios")
	if err != nil {
		return nil, nil, err
	}
	infos, err := scenario.List("scenarios")
	if err != nil {
		return nil, nil, err
	}
	byName := map[string]*scenario.Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	return byName, infos, nil
}

func (w *fleetWarm) setup() error {
	byName, infos, err := librarySpecs()
	if err != nil {
		return err
	}
	w.names, w.specs = nil, nil
	for _, in := range infos {
		if in.Cluster < fleetHosts {
			continue
		}
		s := byName[in.Name]
		s.Seed = s.EffectiveSeed() + (w.seed-1)*seedStride
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		w.names = append(w.names, in.Name)
		w.specs = append(w.specs, b)
	}
	if len(w.names) == 0 {
		return fmt.Errorf("the library has no cluster of %d hosts or more", fleetHosts)
	}

	if w.store != nil {
		if err := os.RemoveAll(w.store.Dir()); err != nil {
			return err
		}
	}
	w.setups++
	if w.store, err = sim.NewDirStore(filepath.Join(w.dir, fmt.Sprintf("warm-%d", w.setups))); err != nil {
		return err
	}
	cache := newStoreCache(w.store, nil)
	for i := range w.specs {
		c, err := w.compile(i)
		if err != nil {
			return err
		}
		if _, err := execScenario(nil, io.Discard, c, cache); err != nil {
			return err
		}
	}
	return cache.Close()
}

func (w *fleetWarm) compile(i int) (*scenario.Compiled, error) {
	s, err := scenario.Parse(w.names[i], w.specs[i])
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

func (w *fleetWarm) pass(tr *tracer) (*passResult, error) {
	t0 := time.Now()
	cache := newStoreCache(w.store, tr)
	p := &passResult{}
	var out bytes.Buffer
	for i, name := range w.names {
		p.ops++
		if err := w.runTimeline(tr, &out, i, cache, &p.exact); err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		}
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

func (w *fleetWarm) runTimeline(tr *tracer, out io.Writer, i int, cache *sim.Cache, ex *exactStats) error {
	var spec *scenario.Spec
	if err := tr.do("scenario.parse", func() (err error) {
		spec, err = scenario.Parse(w.names[i], w.specs[i])
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
	if tr != nil {
		wrapPolicy(c, tr)
	}
	res, err := execScenario(tr, out, c, cache)
	if err != nil {
		return err
	}
	ex.addCluster(res.Cluster)
	return nil
}

func (e *exactStats) addCluster(rep *cluster.Report) {
	if rep == nil {
		return
	}
	e.Moves += float64(len(rep.Timeline))
	e.Ticks += float64(len(rep.Ticks))
	for _, mv := range rep.Timeline {
		e.SimulatedS += mv.Duration.Seconds()
		e.Rounds += float64(mv.Rounds)
		e.GiBSent += float64(mv.BytesSent) / float64(units.GiB)
	}
}

func (w *fleetWarm) extras(*layerMetrics) error { return nil }

func (w *fleetWarm) close() error { return nil }

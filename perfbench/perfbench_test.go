package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// execLibrary runs one library scenario through the benchmark's exec
// path over a store in dir; tr non-nil puts every timing wrapper in.
func execLibrary(t *testing.T, name, dir string, tr *tracer) []byte {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("..", "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := newStoreCache(ds, tr)
	if tr != nil {
		wrapPolicy(c, tr)
	}
	var out bytes.Buffer
	if _, err := execScenario(tr, &out, c, cache); err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWrappersKeepOutput holds the traced path to the plain one: for a
// migration, a datacenter and a cluster scenario, cold and then warm
// from the store, the wrapped run renders the same bytes.
func TestWrappersKeepOutput(t *testing.T) {
	for _, name := range []string{"c1-cpuload-live", "consolidation-sweep", "fleet-diurnal-8"} {
		t.Run(name, func(t *testing.T) {
			plainDir, tracedDir := t.TempDir(), t.TempDir()
			for _, phase := range []string{"cold", "warm"} {
				plain := execLibrary(t, name, plainDir, nil)
				tr := newTracer()
				traced := execLibrary(t, name, tracedDir, tr)
				tr.finish()
				if !bytes.Equal(plain, traced) {
					t.Fatalf("%s: traced output differs from plain:\n%s\nvs\n%s", phase, traced, plain)
				}
				counts := map[string]int{}
				for _, s := range tr.spans {
					counts[s.name]++
				}
				if counts["service.exec"] != 1 || counts["report.render"] != 1 {
					t.Errorf("%s: spans %v, want one service.exec and one report.render", phase, counts)
				}
				if phase == "warm" && counts["store.get"] == 0 {
					t.Errorf("warm: no store.get span; the store wrapper is not on the path")
				}
				if name == "fleet-diurnal-8" && counts["consolidation.plan"] == 0 {
					t.Errorf("%s: no consolidation.plan span; the policy wrapper is not on the path", phase)
				}
			}
		})
	}
}

// TestWrappersKeepInterfaces checks that the store wrapper keeps the
// cross-process singleflight and the policy wrapper the view fast path.
func TestWrappersKeepInterfaces(t *testing.T) {
	ds, err := sim.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.NewResilientStore(&timedStore{inner: ds, tr: newTracer()}, resilience()).(sim.CacheLocker); !ok {
		t.Error("the resilient store over the timing wrapper lost CacheLocker")
	}
	spec, err := scenario.Load(filepath.Join("..", "scenarios", "fleet-diurnal-8.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	name := c.Cluster.Config.Policy.Name()
	wrapPolicy(c, newTracer())
	if _, ok := c.Cluster.Config.Policy.(*timedPolicy); !ok {
		t.Fatal("the policy was not wrapped")
	}
	if _, ok := c.Cluster.Config.Policy.(consolidation.ViewPolicy); !ok || c.Cluster.Config.Policy.Name() != name {
		t.Error("the wrapped policy lost ViewPolicy or its name")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "bench.pass", start: 0, end: 100 * ms, parent: -1},
		{name: "cluster.run", start: 10 * ms, end: 60 * ms, parent: 0},
		{name: "store.get", start: 20 * ms, end: 30 * ms, parent: 1},
		{name: "store.get", start: 25 * ms, end: 35 * ms, parent: 1},
		{name: "store.put", start: 40 * ms, end: 90 * ms, parent: 1, async: true},
		{name: "report.render", start: 60 * ms, end: 95 * ms, parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{15 * ms, 35 * ms, 10 * ms, 10 * ms, 50 * ms, 35 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
      flat  flat%   sum%        cum   cum%
     0.50s 50.00% 50.00%      0.50s 50.00%  repro/internal/mem.(*Image).dirtyFast (inline)
     0.20s 20.00% 70.00%      0.30s 30.00%  repro/internal/xen.(*Host).Step
     0.10s 10.00% 80.00%      0.10s 10.00%  repro/internal/sim.RunCtx
     0.10s 10.00% 90.00%      0.10s 10.00%  runtime.mallocgc
     0.10s 10.00%   100%      0.10s 10.00%  repro/internal/cluster.(*engine).viewTick
`)
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mem.cpu_share": 0.5, "kernel.cpu_share": 0.3, "cluster.cpu_share": 0.1}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if got["service.cpu_share"] != 0 {
		t.Errorf("service.cpu_share = %v, want 0", got["service.cpu_share"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(layerUnits))
	}
	for _, m := range b.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s): program has unit %q, listed %v", m.Name, m.Unit, u, ok)
		}
	}
	res := &result{Metrics: map[string]metric{}}
	endToEnd(res, []*passResult{{wall: time.Second, ops: 1}})
	res.set("setup_s", 1, "s")
	res.set("peak_rss_mb", 1, "MB")
	if len(b.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(res.Metrics))
	}
	for _, m := range b.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program reports %+v, listed %v", m.Name, m.Unit, got, ok)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// exercise reads 0.
var layerUnits = map[string]string{
	"mem.cpu_share":             "ratio",
	"kernel.cpu_share":          "ratio",
	"consolidation.cpu_share":   "ratio",
	"cluster.cpu_share":         "ratio",
	"scenario.cpu_share":        "ratio",
	"service.cpu_share":         "ratio",
	"mem.ns_per_write":          "ns",
	"mem.new_page_ratio":        "ratio",
	"sim.run_ms_p50":            "ms",
	"sim.steps_per_s":           "1/s",
	"sim.kernel_runs":           "count",
	"sim.cache_hit_ratio":       "ratio",
	"parallel.cpu_util":         "ratio",
	"experiments.campaign_s":    "s",
	"core.fit_s":                "s",
	"store.gets":                "count",
	"store.get_ms_p50":          "ms",
	"store.get_mb":              "MB",
	"store.puts":                "count",
	"store.put_ms_p50":          "ms",
	"store.failed_ops":          "count",
	"scenario.compile_ms":       "ms",
	"consolidation.rounds":      "count",
	"consolidation.plan_ms_p50": "ms",
	"consolidation.plan_ms_p99": "ms",
	"consolidation.plan_s":      "s",
	"cluster.run_s":             "s",
	"cluster.other_s":           "s",
	"go.gc_cpu_frac":            "ratio",
	"go.alloc_mb":               "MB",
	"go.gc_cycles":              "count",
	"service.handler_ms_p50":    "ms",
	"service.exec_ms_p50":       "ms",
	"service.rejected":          "count",
	"sim.simulated_s":           "s",
	"migration.rounds":          "count",
	"migration.gib_sent":        "GiB",
	"consolidation.moves":       "count",
	"cluster.ticks":             "count",
	"bench.trace_overhead":      "ratio",
	"bench.unattributed_frac":   "ratio",
	"fail_ratio":                "ratio",
	"experiments.self_s":        "s",
	"core.self_s":               "s",
	"report.self_s":             "s",
	"scenario.self_s":           "s",
	"service.self_s":            "s",
	"cluster.self_s":            "s",
	"consolidation.self_s":      "s",
	"store.self_s":              "s",
	"http.self_s":               "s",
}

// cpuLayers maps a package of this module to the layer its CPU samples
// count toward.
var cpuLayers = map[string]string{
	"mem":           "mem",
	"sim":           "kernel",
	"xen":           "kernel",
	"vm":            "kernel",
	"hw":            "kernel",
	"meter":         "kernel",
	"migration":     "kernel",
	"netsim":        "kernel",
	"trace":         "kernel",
	"consolidation": "consolidation",
	"cluster":       "cluster",
	"scenario":      "scenario",
	"service":       "service",
}

// layerMetrics collects a traced run's per-layer metrics, plus the
// operations its direct measurements attempted and failed.
type layerMetrics struct {
	m                 map[string]metric
	passS             float64 // median traced pass wall time
	attempted, failed int
}

func newLayerMetrics() *layerMetrics {
	lm := &layerMetrics{m: map[string]metric{}}
	for name, unit := range layerUnits {
		lm.m[name] = metric{Unit: unit}
	}
	return lm
}

func (lm *layerMetrics) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	lm.m[name] = metric{Value: v, Unit: unit}
}

// fromPasses derives the span, store, planning, cache and simulated
// metrics of the traced passes: per-pass values, then medians.
func (lm *layerMetrics) fromPasses(passes []*passResult) {
	perPass := map[string][]float64{}
	add := func(name string, v float64) { perPass[name] = append(perPass[name], v) }
	var getMS, putMS, planMS, execMS []float64
	var wall []float64
	var lookups, served float64
	for _, p := range passes {
		spans := p.spans.spans
		self := selfTimes(spans)
		wallS := (spans[0].end - spans[0].start).Seconds()
		wall = append(wall, p.wall.Seconds())
		add("bench.unattributed_frac", self[0].Seconds()/wallS)
		bySelf := map[string]float64{}
		sums := map[string]float64{}
		counts := map[string]float64{}
		var getBytes, failedOps, clusterStore, clusterPlan float64
		for i, s := range spans[1:] {
			i++
			d := (s.end - s.start).Seconds()
			bySelf[layerOf(s.name)+".self_s"] += self[i].Seconds()
			sums[s.name] += d
			counts[s.name]++
			if layerOf(s.name) == "store" && s.failed {
				failedOps++
			}
			switch s.name {
			case "store.get":
				getMS = append(getMS, d*1e3)
				getBytes += float64(s.bytes)
			case "store.put":
				putMS = append(putMS, d*1e3)
			case "consolidation.plan":
				planMS = append(planMS, d*1e3)
			case "service.exec":
				execMS = append(execMS, d*1e3)
			}
			if under(spans, i, "cluster.run") {
				switch s.name {
				case "store.get", "store.lock", "store.quarantine":
					clusterStore += d
				case "consolidation.plan":
					clusterPlan += d
				}
			}
		}
		for name := range layerUnits {
			if strings.HasSuffix(name, ".self_s") {
				add(name, bySelf[name])
			}
		}
		add("store.gets", counts["store.get"])
		add("store.puts", counts["store.put"])
		add("store.get_mb", getBytes/1e6)
		add("store.failed_ops", failedOps)
		add("consolidation.rounds", counts["consolidation.plan"])
		add("consolidation.plan_s", sums["consolidation.plan"])
		add("cluster.run_s", sums["cluster.run"])
		add("cluster.other_s", sums["cluster.run"]-clusterPlan-clusterStore)
		add("experiments.campaign_s", sums["experiments.campaign"])
		add("core.fit_s", sums["core.fit"])
		add("scenario.compile_ms", sums["scenario.compile"]*1e3)
		add("sim.kernel_runs", float64(p.cache.KernelRuns))
		lookups += float64(p.cache.Hits + p.cache.Misses)
		served += float64(p.cache.Hits + p.cache.DiskHits)
	}
	for name, vs := range perPass {
		lm.set(name, median(vs))
	}
	lm.passS = median(wall)
	lm.set("store.get_ms_p50", percentile(getMS, 0.5))
	lm.set("store.put_ms_p50", percentile(putMS, 0.5))
	lm.set("consolidation.plan_ms_p50", percentile(planMS, 0.5))
	lm.set("consolidation.plan_ms_p99", percentile(planMS, 0.99))
	lm.set("service.exec_ms_p50", percentile(execMS, 0.5))
	if lookups > 0 {
		lm.set("sim.cache_hit_ratio", served/lookups)
	}
	lm.setExact(passes[0].exact)
}

func (lm *layerMetrics) setExact(e exactStats) {
	lm.set("sim.simulated_s", e.SimulatedS)
	lm.set("migration.rounds", e.Rounds)
	lm.set("migration.gib_sent", e.GiBSent)
	lm.set("consolidation.moves", e.Moves)
	lm.set("cluster.ticks", e.Ticks)
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes, gcCycles float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), gcCycles: v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// cpuShares summarises a CPU profile with `go tool pprof -top` and
// returns each layer's share of the flat samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(out)
}

// parseTop reads pprof -top rows ("flat flat% sum% cum cum% name") and
// sums flat% by layer.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l+".cpu_share"] = 0
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		rows++
		if layer, ok := cpuLayers[modulePackage(strings.Join(f[5:], " "))]; ok {
			shares[layer+".cpu_share"] += pct / 100
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("go tool pprof printed no samples")
	}
	return shares, nil
}

// modulePackage returns the repro/internal package a symbol belongs to,
// or "" for symbols outside it.
func modulePackage(sym string) string {
	rest, ok := strings.CutPrefix(sym, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}

// timeCalls runs f n times and returns each call's wall time in ms.
func timeCalls(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return out, nil
}

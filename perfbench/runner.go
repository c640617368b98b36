package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/sim"
)

// bench is one benchmark workload. Set-up runs setupReps times (the
// last one is measured); each pass is one unit of timed, checked work.
type bench interface {
	setup() error
	// pass runs one pass; tr is nil on untraced passes, which must run
	// the program without any wrapper.
	pass(tr *tracer) (*passResult, error)
	// extras makes the traced run's direct layer measurements.
	extras(lm *layerMetrics) error
	close() error
}

// passResult is what one pass measured and produced.
type passResult struct {
	wall   time.Duration
	ops    int             // operations attempted
	failed int             // operations that failed or answered wrong
	lat    []time.Duration // request latencies; nil when the pass is the request
	digest [32]byte        // digest of everything the pass rendered
	exact  exactStats
	cache  sim.CacheStats // run-cache traffic of the pass
	spans  *tracer        // nil when untraced
}

// exactStats are simulated quantities: a speed-only change must leave
// them bit-identical.
type exactStats struct {
	SimulatedS float64
	Rounds     float64
	GiBSent    float64
	Moves      float64
	Ticks      float64
}

func newWorkload(o options, dir string) (bench, error) {
	switch o.workload {
	case "paper-cold":
		return &paperCold{seed: o.seed, dir: dir}, nil
	case "fleet-warm":
		return &fleetWarm{seed: o.seed, dir: dir}, nil
	case "daemon-warm":
		return &daemonWarm{seed: o.seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-cold, fleet-warm or daemon-warm)", o.workload)
}

func run(o options) (res *result, err error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(o, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var setups []float64
	for spent := 0.0; len(setups) < setupReps || (spent < setupSpan && len(setups) < maxSetupReps); {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}

	ch := &checker{}
	res = &result{Metrics: map[string]metric{}}
	if !o.trace {
		passes, err := runPasses(w, ch, o.seconds, false)
		if err != nil {
			return nil, err
		}
		endToEnd(res, passes)
		res.set("setup_s", median(setups), "s")
		res.set("peak_rss_mb", peakRSSMB(), "MB")
	} else if err := traced(res, w, ch, o, dir); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = ch.attempted, ch.failed
	res.Correct = ch.failed == 0
	return res, nil
}

// checker counts operations and failures across passes, holding every
// pass to the first pass's rendered digest and simulated statistics.
type checker struct {
	attempted, failed int
	first             *passResult
}

func (c *checker) add(p *passResult) {
	c.attempted += p.ops
	c.failed += p.failed
	if c.first == nil {
		c.first = p
		return
	}
	if p.digest != c.first.digest {
		c.failed++
		fmt.Fprintln(os.Stderr, "perfbench: a pass rendered output differing from the first pass")
	}
	if p.exact != c.first.exact {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: simulated statistics differ between passes: %+v vs %+v\n", p.exact, c.first.exact)
	}
}

// runPasses runs passes until seconds of pass time have elapsed (at
// least two passes).
func runPasses(w bench, ch *checker, seconds float64, trace bool) ([]*passResult, error) {
	var out []*passResult
	var spent float64
	for len(out) < 2 || spent < seconds {
		runtime.GC() // no garbage of the last pass is collected on this one's clock
		var tr *tracer
		if trace {
			tr = newTracer()
		}
		p, err := w.pass(tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.finish()
			p.spans = tr
		}
		ch.add(p)
		out = append(out, p)

		spent += p.wall.Seconds()
	}
	return out, nil
}

// endToEnd sets the untraced metrics. Where a pass holds many requests
// (daemon-warm) latency percentiles and rate are taken per pass and the
// medians over passes reported; where the pass is the request (one
// researcher's or operator's invocation) they are taken over passes.
func endToEnd(res *result, passes []*passResult) {
	var wall, p50, p99, rate []float64
	var total time.Duration
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		total += p.wall
		if p.lat != nil {
			lat := durationsMS(p.lat)
			p50 = append(p50, percentile(lat, 0.50))
			p99 = append(p99, percentile(lat, 0.99))
			rate = append(rate, float64(len(p.lat))/p.wall.Seconds())
		}
	}
	res.set("pass_s", median(wall), "s")
	if len(p50) == 0 {
		for _, w := range wall {
			p50 = append(p50, w*1e3)
		}
		p50, p99 = []float64{median(p50)}, []float64{percentile(p50, 0.99)}
		rate = []float64{float64(len(passes)) / total.Seconds()}
	}
	res.set("req_p50_ms", median(p50), "ms")
	res.set("req_p99_ms", median(p99), "ms")
	res.set("req_per_s", median(rate), "1/s")
}

// traced runs untraced passes for a third of the span (the overhead
// reference), then traced passes under the CPU profiler, then the
// workload's direct layer measurements.
func traced(res *result, w bench, ch *checker, o options, dir string) error {
	ru0 := cpuTime()
	t0 := time.Now()
	plain, err := runPasses(w, ch, o.seconds/3, false)
	if err != nil {
		return err
	}
	util := (cpuTime() - ru0) / (time.Since(t0).Seconds() * float64(workers))

	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer prof.Close()
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	tracedPasses, err := runPasses(w, ch, o.seconds/2, true)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	rt := readRuntime().sub(rt0)
	if err := prof.Close(); err != nil {
		return err
	}

	lm := newLayerMetrics()
	lm.fromPasses(tracedPasses)
	lm.set("parallel.cpu_util", util)
	n := float64(len(tracedPasses))
	lm.set("go.gc_cpu_frac", rt.gcCPU/rt.totalCPU)
	lm.set("go.alloc_mb", rt.allocBytes/1e6/n)
	lm.set("go.gc_cycles", rt.gcCycles/n)

	var plainWall []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	lm.set("bench.trace_overhead", lm.passS/median(plainWall)-1)

	shares, err := cpuShares(prof.Name())
	if err != nil {
		return err
	}
	for name, v := range shares {
		lm.set(name, v)
	}
	if err := w.extras(lm); err != nil {
		return err
	}
	ch.attempted += lm.attempted
	ch.failed += lm.failed
	lm.set("fail_ratio", float64(ch.failed)/float64(max(ch.attempted, 1)))
	for k, v := range lm.m {
		res.Metrics[k] = v
	}
	if cov := 1 - lm.m["bench.unattributed_frac"].Value; cov < minCoverage {
		return fmt.Errorf("layer spans cover %.3f of traced pass time, below the %.2f floor", cov, minCoverage)
	}
	return nil
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// Command perfbench is the repository benchmark: one process that sets
// up a workload, runs timed passes of it for a fixed span, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its standard output.
//
// Every layer is measured from outside, by timing calls into its public
// functions; the traced run wraps the store and the planning policy in
// forwarding timers and profiles the CPU, and the untraced run measures
// the plain program.
//
// Usage, from the root of a checkout (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload fleet-warm --seed 3 --seconds 25 --trace 1 --out runs.jsonl
//	bash perfbench/run.sh --compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// A run performs its workload's set-up setupReps times, and more while
// they took less than setupSpan in all (up to maxSetupReps), so a quick
// set-up is sampled often enough for a steady median. The median is
// reported as setup_s; the last set-up is the one measured.
const (
	setupReps    = 3
	setupSpan    = 1.0 // seconds
	maxSetupReps = 50
)

// minCoverage is the least share of a traced pass's wall time the layer
// spans must cover; a traced run below it fails (see README.md).
const minCoverage = 0.95

// workers is the process's concurrency: the run's kernel fan-out, and
// the daemon workload's client connections.
var workers = min(runtime.NumCPU(), 2)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var (
		o       options
		traceN  int
		compare bool
	)
	flag.StringVar(&o.workload, "workload", "", "paper-cold, fleet-warm or daemon-warm")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase runs")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments and exit")
	flag.Parse()
	o.trace = traceN == 1

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"); err != nil {
			fatal(err)
		}
		return
	}
	if o.seconds <= 0 || (traceN != 0 && traceN != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if o.out != "" {
		if err := appendRecord(o, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// record is one line of an --out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(o options, res *result) error {
	b, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the human-readable view of the result: every metric
// by name with its unit, and the failure counts (fail_ratio is their
// quotient).
func printTable(w *os.File, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if _, ok := r.Metrics["fail_ratio"]; !ok {
		fmt.Fprintf(w, "  %-28s %14.6g ratio\n", "fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Fprintf(w, "  %d failed of %d attempted\n", r.Failed, r.Attempted)
}

// workDir makes the run's scratch directory under .bench_build in the
// checkout; the caller removes it.
func workDir() (string, error) {
	if _, err := os.Stat(filepath.Join("scenarios")); err != nil {
		return "", fmt.Errorf("run from the root of a checkout: %w", err)
	}
	base := filepath.Join(".bench_build", "perfbench-work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads: each metric's
// better direction and, for end-to-end metrics, its regression bound.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// loadRecords reads an --out file: medians per workload, per metric,
// kept apart for untraced and traced runs (metric names do not overlap).
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		out[r.Workload]["fail_ratio"] = append(out[r.Workload]["fail_ratio"],
			float64(r.Result.Failed)/float64(max(r.Result.Attempted, 1)))
	}
	return out, sc.Err()
}

// compareFiles prints, for every metric, one row per workload: the two
// files' medians, the relative change, and the verdict against the
// metric's bound (end-to-end) or direction (per-layer).
func compareFiles(w io.Writer, oldPath, newPath, benchPath string) error {
	older, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	newer, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	spec := map[string]specMetric{}
	if raw, err := os.ReadFile(benchPath); err == nil {
		var b benchSpec
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("%s: %w", benchPath, err)
		}
		for _, m := range append(b.EndToEnd, b.PerLayer...) {
			spec[m.Name] = m
		}
	}

	names := map[string]bool{}
	var workloads []string
	for wl, ms := range older {
		if newer[wl] != nil {
			workloads = append(workloads, wl)
		}
		for n := range ms {
			names[n] = true
		}
	}
	sort.Strings(workloads)
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "%-28s %-12s %14s %14s %9s  %s\n", "metric", "workload", "old", "new", "delta", "verdict")
	for _, n := range sorted {
		for _, wl := range workloads {
			ov, nv := older[wl][n], newer[wl][n]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			delta := 0.0
			if om != 0 {
				delta = (nm - om) / om
			}
			fmt.Fprintf(w, "%-28s %-12s %14.6g %14.6g %+8.2f%%  %s\n", n, wl, om, nm, delta*100, verdict(spec[n], om, nm, delta))
		}
	}
	return nil
}

func verdict(m specMetric, old, new, delta float64) string {
	if old == new {
		return "same"
	}
	worse := delta > 0
	if m.Better == "higher" {
		worse = delta < 0
	}
	switch {
	case m.Better == "":
		return "changed"
	case m.Bound == nil && worse:
		return "worse"
	case m.Bound == nil:
		return "better"
	case worse && math.Abs(delta) > *m.Bound:
		return fmt.Sprintf("REGRESSION (bound %.0f%%)", *m.Bound*100)
	case worse:
		return "within bound"
	}
	return "better"
}

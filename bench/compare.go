package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is what the benchmark reads of BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// loadRuns reads a results file written with -out: one run per line, and
// returns metric values keyed by workload then metric name, in run order.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec struct {
			Workload string `json:"workload"`
			Result   result `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Result.Correct || rec.Result.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: run of %s is not clean (correct=%v failed=%d); a gain does not count when ops fail",
				path, line, rec.Workload, rec.Result.Correct, rec.Result.Failed)
		}
		byMetric := runs[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			runs[rec.Workload] = byMetric
		}
		for name, m := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return runs, sc.Err()
}

// verdict judges one end-to-end metric on one workload: unresolved when
// either side's run-to-run spread (interquartile range over its median) is
// wider than the bound, worse when the new median is worse than the old by
// more than the bound, ok otherwise.
func verdict(spec metricSpec, oldVals, newVals []float64) (oldMed, newMed, delta, spread float64, v string) {
	oq1, oq2, oq3 := quartiles(oldVals)
	nq1, nq2, nq3 := quartiles(newVals)
	oldMed, newMed = oq2, nq2
	if oldMed != 0 {
		delta = (newMed - oldMed) / oldMed
	}
	if oq2 != 0 {
		spread = (oq3 - oq1) / oq2
	}
	if nq2 != 0 {
		spread = max(spread, (nq3-nq1)/nq2)
	}
	worse := delta
	if spec.Better == "higher" {
		worse = -delta
	}
	switch {
	case len(oldVals) < 2 || len(newVals) < 2:
		v = "unresolved" // one run has no spread to judge against
	case spread > spec.Bound:
		v = "unresolved"
	case worse > spec.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return oldMed, newMed, delta, spread, v
}

// runCompare prints, per workload and end-to-end metric, the old and new
// medians, the relative change with its base, the bound from BENCHMARK.json
// and the verdict. It exits 1 when any pairing is worse.
func runCompare(w io.Writer, oldPath, newPath string) int {
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailure
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailure
	}
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailure
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailure
	}
	return compareRuns(w, bf, oldRuns, newRuns)
}

func compareRuns(w io.Writer, bf *benchmarkFile, oldRuns, newRuns map[string]map[string][]float64) int {
	code := exitOK
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %22s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "change (of old)", "spread", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, spec := range bf.EndToEnd {
			o, n := oldRuns[wl.Name][spec.Name], newRuns[wl.Name][spec.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-14s %-18s %14s %14s %22s %8s %7.2f  missing (old %d runs, new %d runs)\n",
					wl.Name, spec.Name, "-", "-", "-", "-", spec.Bound, len(o), len(n))
				code = exitFailure
				continue
			}
			oldMed, newMed, delta, spread, v := verdict(spec, o, n)
			change := fmt.Sprintf("%+.1f%% of %.4g %s", 100*delta, oldMed, spec.Unit)
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %22s %7.1f%% %7.2f  %s (n=%d/%d, %s is better)\n",
				wl.Name, spec.Name, oldMed, newMed, change, 100*spread, spec.Bound, v, len(o), len(n), spec.Better)
			if v == "worse" {
				code = exitFailure
			}
		}
	}
	return code
}

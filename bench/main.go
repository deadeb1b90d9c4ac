// Command bench is the repository's benchmark: one process builds a
// 3-replica cluster through the public gosmr API, drives it from a seeded
// load generator over two client connections (closed loop, then open loop),
// checks every reply against an oracle and prints every metric by name.
// README.md in this directory defines the metrics and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; its JSON form is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Exit codes.
const (
	exitOK      = 0
	exitFailure = 1 // oracle violation, run budget exceeded, or infrastructure error
	exitUsage   = 2
)

// runBudget bounds one whole run; the per-op bound is opTimeout.
const runBudget = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run (one of BENCHMARK.json's, or all)")
		seed         = flag.Int64("seed", 1, "seed for keys, op mix and arrival schedule")
		seconds      = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		out          = flag.String("out", "", "append each run's JSON line to this file (input of -compare)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(exitUsage)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(exitUsage)
	}
	var todo []*workload
	if *workloadName == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(exitUsage)
	}

	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(exitFailure)
	}
	scratch := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(exitFailure)
	}
	printEnv(root, scratch, *seed)

	code := exitOK
	for _, w := range todo {
		watchdog := time.AfterFunc(runBudget, func() {
			fmt.Fprintf(os.Stderr, "bench: %s exceeded the %v run budget\n", w.name, runBudget)
			os.Exit(exitFailure)
		})
		var res result
		var err error
		if *trace != 0 {
			res, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second, scratch, filepath.Join(root, "bench", "out"))
		} else {
			res, err = runUntraced(w, *seed, time.Duration(*seconds)*time.Second, scratch)
		}
		watchdog.Stop()
		if err != nil {
			// No metrics on a violated oracle.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = exitFailure
			continue
		}
		printMetrics(w, *trace != 0, res)
		line, _ := json.Marshal(res)
		if *out != "" {
			if err := appendLine(*out, w.name, *seed, line); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = exitFailure
			}
		}
		fmt.Println(string(line))
	}
	os.Exit(code)
}

// checkoutRoot finds the checkout the benchmark runs in: the directory that
// holds BENCHMARK.json, starting from the working directory (run.sh starts
// the binary there; `go run -C bench .` starts it one level below).
func checkoutRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent", wd)
}

// printEnv records what the numbers depend on besides the code.
func printEnv(root, scratch string, seed int64) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("# env go=%s gomaxprocs=%d nproc=%d kernel=%s commit=%s datadir_fs=%s seed=%d connections=%d replicas=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		strings.TrimSpace(string(kernel)), commitOf(root), fsType(scratch), seed, numConns, replicas)
}

// commitOf reads the checked-out commit without running git (the driver's
// checkout is not a repository; then the commit is unknown).
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}

// fsType names the filesystem under dir. write_durable means what it says
// only on a filesystem whose fsync reaches a device: tmpfs makes it a no-op.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// printMetrics prints every metric of the run by name with its unit, in the
// order BENCHMARK.json lists them.
func printMetrics(w *workload, traced bool, res result) {
	names := endToEndNames
	if traced {
		names = perLayerNames()
	}
	fmt.Printf("# workload %s (%s)\n", w.name, w.why)
	if w.delay > 0 {
		fmt.Printf("# injected one-way delay between replicas: %v\n", w.delay)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-36s %14d count\n%-36s %14d count\n", "attempted", res.Attempted, "failed", res.Failed)
}

// appendLine adds one run to a results file: the run's JSON line tagged with
// workload and seed, one per line.
func appendLine(path, workload string, seed int64, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := fmt.Sprintf(`{"workload":%q,"seed":%d,"result":%s}`+"\n", workload, seed, line)
	if _, err := f.WriteString(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command gosmr-bench regenerates every figure and table of the paper's
// evaluation (Sec. VI) on the deterministic simulator and prints them in
// paper order. README.md ("Experiments and benchmarks") lists the
// experiments.
//
// Usage:
//
//	gosmr-bench                      # run everything at full fidelity
//	gosmr-bench -experiment fig10    # one experiment
//	gosmr-bench -measure 1s          # longer measurement windows
//
// The real replica is measured by the bench/ module (bash bench/run.sh), not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gosmr/internal/experiments"
)

func main() {
	var (
		warmup  = flag.Duration("warmup", 200*time.Millisecond, "virtual warm-up per run (discarded)")
		measure = flag.Duration("measure", 500*time.Millisecond, "virtual measurement window per run")
		which   = flag.String("experiment", "all",
			"experiment to run: all, fig1, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, table1, table2, table3, rss, nobatcher")
	)
	flag.Parse()

	start := time.Now()
	s := experiments.NewSuite(experiments.Options{Warmup: *warmup, Measure: *measure})
	switch strings.ToLower(*which) {
	case "all":
		fmt.Print(s.All())
	case "fig1":
		fmt.Print(s.Fig1().Report)
	case "fig4":
		fmt.Print(s.Fig4().Report)
	case "fig5":
		n3, n5 := s.Fig5()
		fmt.Print(n3.Report, n5.Report)
	case "fig6":
		fmt.Print(s.Fig6().Report)
	case "fig7":
		n3, n5 := s.Fig7()
		fmt.Print(n3.Report, n5.Report)
	case "fig8":
		for _, p := range s.Fig8() {
			fmt.Print(p.Report)
		}
	case "fig9":
		fmt.Print(s.Fig9().Report)
	case "fig10":
		fmt.Print(s.Fig10().Report)
	case "fig11":
		fmt.Print(s.Fig11().Report)
	case "fig12":
		fmt.Print(s.Fig12().Report)
	case "fig13":
		fmt.Print(s.Fig13().Report)
	case "fig14":
		for _, p := range s.Fig14() {
			fmt.Print(p.Report)
		}
	case "table1":
		fmt.Print(s.TableI().Report)
	case "table2":
		fmt.Print(s.TableII().Report)
	case "table3":
		fmt.Print(s.TableIII().Report)
	case "rss":
		fmt.Print(s.AblationRSS().Report)
	case "nobatcher":
		fmt.Print(s.AblationNoBatcher().Report)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
	fmt.Printf("\n(done in %v)\n", time.Since(start).Round(time.Millisecond))
}

// CPI validation: the paper's Figure 12 experiment as an example.
//
// The benchmark is run "natively" (whole-program execution on the native
// hardware model with perf-style counters) and compared against the Sniper
// timing model executing only the SimPoint-chosen regional pinballs, with
// weight-averaged CPI. Good agreement means a sampled simulation predicts
// real performance.
//
//	go run ./examples/cpi-validation [benchmark...]
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"specsampling/internal/core"
	"specsampling/internal/native"
	"specsampling/internal/stats"
	"specsampling/internal/textplot"
	"specsampling/internal/workload"
)

func main() {
	benches := []string{"541.leela_r", "505.mcf_r", "520.omnetpp_r", "538.imagick_r"}
	if len(os.Args) > 1 {
		benches = os.Args[1:]
	}
	scale := workload.ScaleFromEnv(workload.ScaleMedium)
	ctx := context.Background()

	t := textplot.NewTable("Benchmark", "Native CPI", "Sniper Regional", "Sniper Reduced", "Err %")
	var natCPIs, regCPIs []float64
	for _, name := range benches {
		spec, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		an, err := core.Analyze(ctx, spec, core.DefaultConfig(scale))
		if err != nil {
			log.Fatal(err)
		}

		// "perf stat" on the native machine: whole-program execution.
		nat, err := native.PerfStat(an.Prog, scale.CacheDivs, 0)
		if err != nil {
			log.Fatal(err)
		}

		// Sniper on the regional pinballs, with warm-up before each region.
		pbs, err := an.Pinballs(an.Result, 16)
		if err != nil {
			log.Fatal(err)
		}
		tcfg := an.TimingConfig()
		m, err := an.Measure(ctx, pbs, core.Tools{CPI: &tcfg})
		if err != nil {
			log.Fatal(err)
		}
		regional := m.CPI()

		// And on the 90th-percentile reduced points: a subset of the
		// regional ones, so re-weight their measurements instead of
		// replaying them again.
		reducedRes, err := an.Result.Reduce(0.9)
		if err != nil {
			log.Fatal(err)
		}
		rm, err := m.Reweight(reducedRes)
		if err != nil {
			log.Fatal(err)
		}
		reduced := rm.CPI()

		natCPIs = append(natCPIs, nat.CPI())
		regCPIs = append(regCPIs, regional.CPI)
		t.AddRow(spec.Name,
			fmt.Sprintf("%.3f", nat.CPI()),
			fmt.Sprintf("%.3f", regional.CPI),
			fmt.Sprintf("%.3f", reduced.CPI),
			fmt.Sprintf("%.2f", math.Abs(regional.CPI-nat.CPI())/nat.CPI()*100))
	}
	fmt.Print(t.String())
	fmt.Printf("\nPearson correlation (native vs sampled): %.4f\n", stats.Pearson(natCPIs, regCPIs))
	fmt.Println("The paper reports 2.59% average CPI error across the suite (Fig. 12).")
}

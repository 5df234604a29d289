// MaxK sweep: the paper's Figure 3(a) sensitivity study as an example.
//
// For one benchmark, the whole execution is profiled once; clustering is
// re-run at MaxK 5..35 and the sampled instruction mix and cache miss rates
// are compared against the full run. Small MaxK values force the sampler to
// compromise its selection of representative phases — watch the errors
// shrink as MaxK grows.
//
//	go run ./examples/maxk-sweep [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"specsampling/internal/cache"
	"specsampling/internal/core"
	"specsampling/internal/textplot"
	"specsampling/internal/workload"
)

func main() {
	bench := "623.xalancbmk_s" // the paper's Figure 3 subject
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	scale := workload.ScaleFromEnv(workload.ScaleMedium)

	ctx := context.Background()
	an, err := core.Analyze(ctx, spec, core.DefaultConfig(scale))
	if err != nil {
		log.Fatal(err)
	}
	hier := cache.ScaledHierarchy(cache.TableIConfig(), scale.CacheDivs)
	w, err := an.MeasureWhole(ctx, core.Tools{Mix: true, Cache: &hier})
	if err != nil {
		log.Fatal(err)
	}
	whole, wholeCache := w.Mix(), w.Cache()

	points, err := an.SweepMaxK(ctx, []int{5, 10, 15, 20, 25, 30, 35}, hier)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s at scale %s — full run: NO_MEM %.2f%%, L3 miss %.2f%%\n\n",
		spec.Name, scale.Name, whole.Fractions[0]*100, wholeCache.L3*100)
	t := textplot.NewTable("MaxK", "Points", "Mix err (pp)", "L1D err (pp)", "L3 err (pp)")
	for _, p := range points {
		var mixErr float64
		for c := 0; c < 4; c++ {
			mixErr += math.Abs(p.Mix.Fractions[c]-whole.Fractions[c]) / 4 * 100
		}
		t.AddRow(p.Label, fmt.Sprint(p.NumPoints),
			fmt.Sprintf("%.3f", mixErr),
			fmt.Sprintf("%+.2f", (p.Cache.L1D-wholeCache.L1D)*100),
			fmt.Sprintf("%+.2f", (p.Cache.L3-wholeCache.L3)*100))
	}
	fmt.Print(t.String())
	fmt.Println("\nAs in the paper, small MaxK shows large deviations; most benchmarks")
	fmt.Println("need well under 35 clusters to capture all their phases (Table II).")
}

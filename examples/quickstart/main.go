// Quickstart: the SimPoint pipeline end to end on one benchmark.
//
// It builds a synthetic SPEC CPU2017 benchmark, finds its simulation points,
// replays them as regional pinballs with the ldstmix Pintool, and compares
// the weighted sampled instruction distribution against the whole run — the
// paper's central accuracy experiment, in ~40 lines of API use.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"specsampling/internal/core"
	"specsampling/internal/obs"
	"specsampling/internal/sched"
	"specsampling/internal/workload"
)

func main() {
	// 0. Narrate progress to stderr while the pipeline runs. Observability
	// is off by default; enabling a sink costs one atomic store.
	obs.Enable(obs.NewNarrator(os.Stderr))
	defer obs.Disable()

	// 1. Pick a benchmark and a scale.
	spec, err := workload.ByName("623.xalancbmk_s")
	if err != nil {
		log.Fatal(err)
	}
	scale := workload.ScaleFromEnv(workload.ScaleMedium)
	cfg := core.DefaultConfig(scale)
	ctx := context.Background()
	obs.HeaderfCtx(ctx, "scale=%s slice=%d maxk=%d seed=%d workers=%d",
		scale.Name, scale.SliceLen, cfg.SimPoint.MaxK, cfg.Seed, sched.Workers(cfg.Workers))

	// 2. Profile and cluster: one pass over the whole execution collects a
	// basic block vector per 30M-equivalent slice; k-means with BIC model
	// selection (MaxK 35) groups the slices into phases.
	an, err := core.Analyze(ctx, spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d slices -> %d simulation points\n",
		spec.Name, an.Result.NumSlices, an.Result.NumPoints())

	// 3. Cut regional pinballs (checkpoints) at the chosen points.
	pinballs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Replay them (in parallel) with ldstmix and weight-average; run the
	// whole program once with the same tool for reference.
	tools := core.Tools{Mix: true}
	m, err := an.Measure(ctx, pinballs, tools)
	if err != nil {
		log.Fatal(err)
	}
	w, err := an.MeasureWhole(ctx, tools)
	if err != nil {
		log.Fatal(err)
	}
	sampled, whole := m.Mix(), w.Mix()

	// 5. Compare: the paper reports <1% error (Figure 7).
	labels := []string{"NO_MEM", "MEM_R", "MEM_W", "MEM_RW"}
	fmt.Printf("%-8s %10s %10s %8s\n", "category", "whole", "sampled", "error")
	for c, label := range labels {
		fmt.Printf("%-8s %9.2f%% %9.2f%% %7.3fpp\n", label,
			whole.Fractions[c]*100, sampled.Fractions[c]*100,
			(sampled.Fractions[c]-whole.Fractions[c])*100)
	}
	fmt.Printf("instructions: whole %d, sampled %d (%.0fx reduction)\n",
		whole.Instrs, sampled.Instrs, float64(whole.Instrs)/float64(sampled.Instrs))
}

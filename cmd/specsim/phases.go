package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"specsampling/internal/bbv"
	"specsampling/internal/cli"
	"specsampling/internal/core"
	"specsampling/internal/obs"
	"specsampling/internal/selector"
	"specsampling/internal/store"
	"specsampling/internal/textplot"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// phasesCmd prints a benchmark's time-varying phase behaviour: a timeline of
// the execution with each slice labelled by its cluster, plus per-phase
// statistics — the view Wu et al. (IISWC 2018) correlate with simulation
// points, as discussed in the paper's related work.
func phasesCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("phases", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark name")
	scaleName := fs.String("scale", "medium", "workload scale")
	width := fs.Int("width", 100, "timeline width in characters")
	workers := fs.Int("workers", runtime.NumCPU(),
		"worker goroutines for clustering and replay (results are identical for any value; <= 0 means GOMAXPROCS)")
	sel := fs.String("selector", "",
		"region-selection backend (default simpoint); 'list' prints the registered backends and their knobs")
	cacheFlags := store.BindFlags(fs)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}
	if *sel == "list" {
		selector.FprintList(os.Stdout)
		return nil
	}
	if *bench == "" {
		return cli.Usagef("missing -bench (run 'specsim list' to see the suite)")
	}
	if *width < 1 {
		return cli.Usagef("-width %d: want at least 1", *width)
	}
	if _, err := selector.ByName(*sel); err != nil {
		return cli.SelectorHint("specsim phases", err)
	}
	spec, err := workload.ByName(*bench)
	if err != nil {
		return cli.Usagef("%v (run 'specsim list' to see the suite)", err)
	}
	scale, err := workload.ScaleByName(*scaleName)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	st, err := cacheFlags.Open()
	if err != nil {
		return err
	}
	shutdown, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := shutdown(); cerr != nil {
			fmt.Fprintln(os.Stderr, "specsim:", cerr)
		}
	}()
	acfg := core.DefaultConfig(scale)
	acfg.Workers = *workers
	acfg.Selector = *sel
	an, err := core.AnalyzeStored(ctx, spec, acfg, st)
	if err != nil {
		return err
	}

	// Re-assign every slice to its nearest simulation-point cluster by
	// projecting its BBV the same way the clustering did.
	slices, err := an.BBVSlices(ctx)
	if err != nil {
		return err
	}
	echo := an.Result.Config
	proj, err := bbv.NewProjector(an.Prog.NumBlocks(), echo.ProjectDims, echo.Seed)
	if err != nil {
		return err
	}
	centroids := make([][]float64, len(an.Result.Points))
	for i, pt := range an.Result.Points {
		v := append([]float64(nil), slices[pt.SliceIndex].BBV...)
		bbv.NormalizeL1(v)
		centroids[i] = proj.Project(v)
	}
	assign := make([]int, len(slices))
	for i, s := range slices {
		v := append([]float64(nil), s.BBV...)
		bbv.NormalizeL1(v)
		p := proj.Project(v)
		best, bestD := 0, math.MaxFloat64
		for c, cent := range centroids {
			if d := bbv.SqDist(p, cent); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}

	// Timeline: compress slices into width buckets, majority cluster wins.
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghij"
	if *width > len(an.Slices) {
		*width = len(an.Slices)
	}
	line := make([]byte, *width)
	for b := 0; b < *width; b++ {
		lo := b * len(an.Slices) / *width
		hi := (b + 1) * len(an.Slices) / *width
		// Count per cluster index (not a map: ties must break towards the
		// lowest cluster so the timeline is identical on every run).
		counts := make([]int, len(centroids))
		for i := lo; i < hi; i++ {
			counts[assign[i]]++
		}
		bestC, bestN := 0, -1
		for c, n := range counts {
			if n > bestN {
				bestC, bestN = c, n
			}
		}
		line[b] = alphabet[bestC%len(alphabet)]
	}

	fmt.Printf("%s at scale %s: %d slices, %d simulation points\n\n",
		spec.Name, scale.Name, len(an.Slices), an.Result.NumPoints())
	fmt.Printf("timeline (execution left to right, letter = phase):\n%s\n\n", line)

	// Per-point stats: weight + CPI of the representative region, from one
	// measurement pass over the regional pinballs.
	cfg := timing.ScaledConfig(timing.TableIIIConfig(), scale.CacheDivs)
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		return err
	}
	m, err := an.Measure(ctx, pbs, core.Tools{CPI: &cfg})
	if err != nil {
		return err
	}
	t := textplot.NewTable("Phase", "Weight", "Slice", "CPI", "Share")
	for i, pt := range an.Result.Points {
		t.AddRow(string(alphabet[i%len(alphabet)]),
			fmt.Sprintf("%.4f", pt.Weight),
			fmt.Sprint(pt.SliceIndex),
			fmt.Sprintf("%.3f", m.Regions[i].CPI.CPI),
			textplot.Bar(pt.Weight, 1, 30))
	}
	fmt.Print(t.String())
	return nil
}

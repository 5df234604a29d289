// Command simpoint runs the SimPoint pipeline for one benchmark and writes
// the classic SimPoint output files: <prefix>.simpoints (slice index per
// point) and <prefix>.weights (weight per point), plus a human-readable
// summary.
//
// Usage:
//
//	simpoint -bench 623.xalancbmk_s [-scale medium] [-maxk 35]
//	         [-percentile 0.9] [-o out/xalancbmk_s]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"specsampling/internal/core"
	"specsampling/internal/simpoint"
	"specsampling/internal/textplot"
	"specsampling/internal/workload"
)

func main() {
	// Root context: SIGINT aborts the analysis cleanly instead of killing
	// the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simpoint:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simpoint", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark name (e.g. 623.xalancbmk_s)")
	scaleName := fs.String("scale", "medium", "workload scale: full, medium or small")
	maxK := fs.Int("maxk", 35, "maximum number of clusters (the paper's MaxK)")
	percentile := fs.Float64("percentile", 0, "also emit reduced points covering this cumulative weight (e.g. 0.9); 0 disables")
	weighted := fs.Bool("weighted", false, "weight slices by instruction count (variable-length-interval clustering)")
	out := fs.String("o", "", "output file prefix; empty prints the summary only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("missing -bench")
	}
	if *maxK < 1 {
		return fmt.Errorf("-maxk %d: want at least 1", *maxK)
	}
	spec, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	scale, err := workload.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(scale)
	cfg.SimPoint.MaxK = *maxK
	an, err := core.Analyze(ctx, spec, cfg)
	if err != nil {
		return err
	}
	res := an.Result
	if *weighted {
		// Recluster with the configuration the pipeline resolved and echoed.
		slices, err := an.BBVSlices(ctx)
		if err != nil {
			return err
		}
		res, err = simpoint.ClusterWeighted(an.Prog.Name, slices, an.TotalInstrs, res.Config)
		if err != nil {
			return err
		}
	}

	fmt.Printf("benchmark:        %s\n", spec.Name)
	fmt.Printf("scale:            %s (slice %d instrs, MaxK %d)\n", scale.Name, cfg.Scale.SliceLen, *maxK)
	fmt.Printf("whole run:        %d instructions, %d slices\n", an.TotalInstrs, res.NumSlices)
	fmt.Printf("simulation points: %d (sampled %d instructions, %.0fx reduction)\n",
		res.NumPoints(), res.SampledInstrs(),
		float64(an.TotalInstrs)/float64(res.SampledInstrs()))

	t := textplot.NewTable("Point", "Slice", "Start instr", "Length", "Weight")
	for i, pt := range res.Points {
		t.AddRowf(i, pt.SliceIndex, pt.Start.Instrs, pt.Len, pt.Weight)
	}
	fmt.Print(t.String())

	if *out != "" {
		if err := res.SaveFiles(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s.simpoints and %s.weights\n", *out, *out)
	}

	if *percentile > 0 {
		red, err := res.Reduce(*percentile)
		if err != nil {
			return err
		}
		fmt.Printf("%.0f%%-percentile points: %d (sampled %d instructions)\n",
			*percentile*100, red.NumPoints(), red.SampledInstrs())
		if *out != "" {
			prefix := fmt.Sprintf("%s.p%02.0f", *out, *percentile*100)
			if err := red.SaveFiles(prefix); err != nil {
				return err
			}
			fmt.Printf("wrote %s.simpoints and %s.weights\n", prefix, prefix)
		}
	}
	return nil
}

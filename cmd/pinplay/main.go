// Command pinplay is the checkpointing front-end: it logs whole pinballs,
// cuts regional pinballs at the SimPoint-chosen regions, and replays
// pinball files with the standard Pintools — mirroring the PinPlay
// logger/replayer workflow of the paper's Figure 2.
//
// Usage:
//
//	pinplay log    -bench 505.mcf_r -dir out/ [-scale medium] [-warmup 16]
//	pinplay replay -pinball out/505.mcf_r.region_03.pb [-scale medium]
//	pinplay replay [-workers N] out/*.pb
//
// Replay runs every pinball given — one or many, even from different
// benchmarks — as one flat sharded work list across the worker pool
// (pinball.ReplaySuite), the paper's "executed in parallel to save time",
// and prints one ldstmix/allcache row per pinball.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"specsampling/internal/cache"
	"specsampling/internal/core"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/pintool"
	"specsampling/internal/workload"
)

func main() {
	// Root context: SIGINT aborts logging/replay cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pinplay:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pinplay <log|replay> [flags]")
	}
	switch args[0] {
	case "log":
		return logPinballs(ctx, args[1:])
	case "replay":
		return replay(ctx, args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want log or replay)", args[0])
	}
}

func logPinballs(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("log", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark name")
	dir := fs.String("dir", ".", "output directory")
	scaleName := fs.String("scale", "medium", "workload scale")
	warmup := fs.Int("warmup", 0, "warm-up slices to attach to each regional pinball")
	maxK := fs.Int("maxk", 35, "maximum number of clusters")
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
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	whole := an.WholePinball()
	wholePath := filepath.Join(*dir, spec.Name+".whole.pb")
	if err := whole.Save(wholePath); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d instructions)\n", wholePath, whole.Len)

	pbs, err := an.Pinballs(an.Result, *warmup)
	if err != nil {
		return err
	}
	for i, pb := range pbs {
		path := filepath.Join(*dir, fmt.Sprintf("%s.region_%02d.pb", spec.Name, i))
		if err := pb.Save(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (weight %.4f, %d instructions)\n", path, pb.Weight, pb.Len)
	}
	return nil
}

func replay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	path := fs.String("pinball", "", "pinball file to replay")
	scaleName := fs.String("scale", "medium", "workload scale the pinballs were captured at")
	workers := fs.Int("workers", 0, "replay workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if *path != "" {
		paths = append([]string{*path}, paths...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("missing -pinball (or pinball file arguments)")
	}
	return replaySuite(ctx, paths, *scaleName, *workers)
}

// replaySuite replays pinball files — possibly spanning benchmarks — as one
// flat sharded work list. Each pinball gets its own ldstmix and allcache
// (a private Table I hierarchy, warmed over the pinball's warm-up region);
// one row per pinball is printed in input order.
func replaySuite(ctx context.Context, paths []string, scaleName string, workers int) error {
	pbs := make([]*pinball.Pinball, len(paths))
	for i, p := range paths {
		pb, err := pinball.Load(p)
		if err != nil {
			return err
		}
		pbs[i] = pb
	}

	// Group by benchmark and capture scale, preserving first-appearance
	// order so output and program construction are deterministic. A
	// pinball's recorded scale wins over -scale.
	type groupKey struct{ bench, scale string }
	type group struct {
		groupKey
		idx []int // indices into pbs/paths
	}
	var groups []group
	byKey := map[groupKey]int{}
	for i, pb := range pbs {
		key := groupKey{pb.Benchmark, scaleName}
		if pb.Scale != "" {
			if pb.Scale != scaleName {
				fmt.Fprintf(os.Stderr, "pinplay: note: %s was captured at scale %q; replaying at that scale, not %q\n", paths[i], pb.Scale, scaleName)
			}
			key.scale = pb.Scale
		}
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, group{groupKey: key})
		}
		groups[g].idx = append(groups[g].idx, i)
	}

	jobs := make([]pinball.SuiteJob, len(groups))
	mixes := make([]*pintool.LdStMix, len(pbs))
	hiers := make([]*cache.Hierarchy, len(pbs))
	for g, grp := range groups {
		spec, err := workload.ByName(grp.bench)
		if err != nil {
			return err
		}
		scale, err := workload.ScaleByName(grp.scale)
		if err != nil {
			return err
		}
		prog, err := spec.Build(scale)
		if err != nil {
			return err
		}
		hcfg := cache.ScaledHierarchy(cache.TableIConfig(), scale.CacheDivs)
		grpPbs := make([]*pinball.Pinball, len(grp.idx))
		for j, i := range grp.idx {
			grpPbs[j] = pbs[i]
			if hiers[i], err = cache.NewHierarchy(hcfg); err != nil {
				return err
			}
		}
		idx := grp.idx
		jobs[g] = pinball.SuiteJob{
			Program:  prog,
			Pinballs: grpPbs,
			MakeTools: func(j int) []pin.Tool {
				m := pintool.NewLdStMix()
				mixes[idx[j]] = m
				return []pin.Tool{m, pintool.NewAllCache(hiers[idx[j]])}
			},
		}
	}

	results := pinball.ReplaySuite(ctx, jobs, workers)
	// Scatter the per-program results back to input order for printing.
	flat := make([]pinball.ReplayResult, len(pbs))
	for g, grp := range groups {
		for j, i := range grp.idx {
			flat[i] = results[g][j]
		}
	}
	var total uint64
	var firstErr error
	for i, res := range flat {
		if res.Err != nil {
			fmt.Printf("%-40s ERROR: %v\n", paths[i], res.Err)
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		pb := res.Pinball
		fr := mixes[i].Fractions()
		l1d, l2, l3 := hiers[i].MissRates()
		fmt.Printf("%-40s %-12s %-8s region %2d  weight %.4f  %12d instrs  warm-up %8d  MEM_R %5.1f%%  miss L1D %5.2f%% L2 %5.2f%% L3 %5.2f%%\n",
			paths[i], pb.Benchmark, pb.Kind, pb.Region, pb.Weight, res.Executed, pb.WarmupLen,
			fr[1]*100, l1d*100, l2*100, l3*100)
		total += res.Executed
	}
	fmt.Printf("replayed %d pinballs across %d programs: %d instructions\n",
		len(pbs), len(groups), total)
	return firstErr
}

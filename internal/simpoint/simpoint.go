// Package simpoint implements the SimPoint methodology (Sherwood et al.;
// Perelman et al.; Hamerly et al., "SimPoint 3.0") on the reproduction's
// program model, as orchestrated through PinPoints in the paper:
//
//  1. Profile: slice the dynamic execution into fixed-length slices and
//     collect a basic block vector per slice, capturing an executor
//     checkpoint at each slice boundary (so chosen slices become regional
//     pinballs for free).
//  2. Cluster: L1-normalise the BBVs, randomly project to 15 dimensions,
//     and run k-means with BIC model selection up to MaxK.
//  3. Choose: in each cluster, the slice nearest the centroid becomes the
//     cluster's simulation point; its weight is the cluster's share of all
//     slices.
//  4. Reduce (Section IV-C of the paper): keep only the heaviest points
//     whose cumulative weight reaches a percentile (e.g. 90 %), trading a
//     little accuracy for large simulation-time savings.
package simpoint

import (
	"fmt"
	"math"
	"sort"

	"specsampling/internal/bbv"
	"specsampling/internal/kmeans"
	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/pintool"
	"specsampling/internal/program"
)

// sliceCounter totals execution slices produced by Profile.
var sliceCounter = obs.GetCounter("profile.slices")

// Config parameterises the pipeline. The paper's final choice for SPEC
// CPU2017 is MaxK = 35 and 30 M-instruction slices (Section IV-A); slice
// lengths here are in scaled instructions (see workload.Scale).
type Config struct {
	// SliceLen is the slice length in instructions.
	SliceLen uint64
	// MaxK is the maximum number of clusters (the paper's MaxK).
	MaxK int
	// BICThreshold is the fraction of the BIC range a candidate k must
	// reach (SimPoint default 0.9).
	BICThreshold float64
	// ProjectDims is the random-projection dimensionality (SimPoint
	// default 15).
	ProjectDims int
	// Seed drives projection and clustering.
	Seed uint64
	// KMeans tunes the clustering engine; zero values use
	// kmeans.DefaultConfig(Seed).
	KMeans kmeans.Config
}

// Pipeline-wide defaults. These constants are the single source for the
// paper's parameter choices; core.Config and simpoint.Config both normalise
// their zero values against them.
const (
	// DefaultMaxK is the paper's cluster ceiling (Section IV-A).
	DefaultMaxK = 35
	// DefaultBICThreshold is SimPoint's BIC acceptance fraction.
	DefaultBICThreshold = 0.9
	// DefaultSeed is the deterministic seed used across the reproduction.
	DefaultSeed uint64 = 2017
)

// DefaultConfig returns the paper's configuration at a given slice length.
func DefaultConfig(sliceLen uint64) Config {
	return Config{
		SliceLen:     sliceLen,
		MaxK:         DefaultMaxK,
		BICThreshold: DefaultBICThreshold,
		ProjectDims:  bbv.DefaultProjectedDims,
		Seed:         DefaultSeed,
	}
}

func (c Config) validate() error {
	if c.SliceLen == 0 {
		return fmt.Errorf("simpoint: zero slice length")
	}
	if c.MaxK <= 0 {
		return fmt.Errorf("simpoint: MaxK = %d", c.MaxK)
	}
	if c.ProjectDims <= 0 {
		return fmt.Errorf("simpoint: ProjectDims = %d", c.ProjectDims)
	}
	return nil
}

// Slice is one profiled execution slice.
type Slice struct {
	// Index is the slice's position in execution order.
	Index int
	// Start is the executor checkpoint at the slice's first instruction.
	Start program.State
	// Len is the exact instruction count of the slice (the last slice of a
	// program may be short; others may exceed SliceLen by under one block).
	Len uint64
	// BBV is the slice's raw basic block vector.
	BBV []float64
}

// Profile runs the whole program once at block granularity, cutting it into
// slices of cfg-length and collecting one BBV per slice. It returns the
// slices and the total instruction count. This is the "Whole Pinball
// logging + BBV profiling" pass of the PinPoints flow.
func Profile(p *program.Program, sliceLen uint64) ([]Slice, uint64, error) {
	if sliceLen == 0 {
		return nil, 0, fmt.Errorf("simpoint: zero slice length")
	}
	engine := pin.NewEngine(p)
	prof := pintool.NewBBProfile(p.NumBlocks())
	if err := engine.Attach(prof); err != nil {
		return nil, 0, err
	}
	var slices []Slice
	var total uint64
	for !engine.Done() {
		start := engine.Executor().State()
		n := engine.Run(sliceLen)
		if n == 0 {
			break
		}
		prof.CutSlice()
		i := len(slices)
		slices = append(slices, Slice{
			Index: i,
			Start: start,
			Len:   prof.SliceLens[i],
			BBV:   prof.Vectors[i],
		})
		total += n
	}
	if len(slices) == 0 {
		return nil, 0, fmt.Errorf("simpoint: program %q produced no slices", p.Name)
	}
	sliceCounter.Add(int64(len(slices)))
	return slices, total, nil
}

// Point is one simulation point: a representative slice with its weight.
type Point struct {
	// SliceIndex is the chosen slice's execution-order index.
	SliceIndex int
	// Start and Len are the slice's replay coordinates.
	Start program.State
	Len   uint64
	// Weight is the cluster's share of all slices — of their instructions
	// for ClusterWeighted (weights sum to 1).
	Weight float64
	// Cluster is the cluster id the point represents.
	Cluster int
}

// Result is the outcome of the SimPoint pipeline for one benchmark.
type Result struct {
	// Benchmark is the program name.
	Benchmark string
	// Config echoes the configuration used.
	Config Config
	// NumSlices is the profiled slice count.
	NumSlices int
	// TotalInstrs is the whole-run instruction count.
	TotalInstrs uint64
	// Points are the simulation points in execution order.
	Points []Point
	// BIC holds the model-selection scores per candidate k.
	BIC map[int]float64
	// AvgClusterVariance is the mean within-cluster variance, the metric of
	// the paper's Figure 4: WCSS divided by the clustering's weight mass —
	// the slice count for Cluster, the slices' total instruction count for
	// ClusterWeighted (whose WCSS is instruction-weighted).
	AvgClusterVariance float64
}

// NumPoints returns the number of simulation points (Table II, column 2).
func (r *Result) NumPoints() int { return len(r.Points) }

// WeightTotal returns the sum of point weights (1 for full results, the
// covered fraction for reduced ones).
func (r *Result) WeightTotal() float64 {
	var sum float64
	for _, pt := range r.Points {
		sum += pt.Weight
	}
	return sum
}

// SampledInstrs is the total instruction count the points replay.
func (r *Result) SampledInstrs() uint64 {
	var sum uint64
	for _, pt := range r.Points {
		sum += pt.Len
	}
	return sum
}

// Cluster runs steps 2-3 of the pipeline on profiled slices.
func Cluster(benchmark string, slices []Slice, totalInstrs uint64, cfg Config) (*Result, error) {
	return cluster(benchmark, slices, totalInstrs, cfg, nil)
}

// ClusterWeighted is the variable-length-interval variant of Cluster
// (SimPoint 3.0, Hamerly et al. — discussed in the paper's Section V-B):
// each slice influences the clustering in proportion to its instruction
// count, and a simulation point's weight is its cluster's *instruction*
// share rather than its slice-count share.
//
// For the fixed-length slices the default profiler cuts, the two variants
// agree to within the final short slice; ClusterWeighted is the correct
// formulation when slice lengths vary substantially.
func ClusterWeighted(benchmark string, slices []Slice, totalInstrs uint64, cfg Config) (*Result, error) {
	weights := make([]float64, len(slices))
	for i, s := range slices {
		weights[i] = float64(s.Len)
	}
	return cluster(benchmark, slices, totalInstrs, cfg, weights)
}

// cluster is Cluster with optional per-slice weights; nil means every slice
// weighs the same.
func cluster(benchmark string, slices []Slice, totalInstrs uint64, cfg Config, weights []float64) (*Result, error) {
	points, kcfg, err := project(slices, cfg)
	if err != nil {
		return nil, err
	}
	var res *kmeans.Result
	var scores map[int]float64
	if weights == nil {
		res, scores, err = kmeans.BestK(points, cfg.MaxK, cfg.BICThreshold, kcfg)
	} else {
		res, scores, err = kmeans.BestKWeighted(points, weights, cfg.MaxK, cfg.BICThreshold, kcfg)
	}
	if err != nil {
		return nil, err
	}
	pts, mass := choosePoints(slices, points, res, weights)
	return &Result{
		Benchmark:          benchmark,
		Config:             cfg,
		NumSlices:          len(slices),
		TotalInstrs:        totalInstrs,
		Points:             pts,
		BIC:                scores,
		AvgClusterVariance: res.WCSS / mass,
	}, nil
}

// project validates cfg and slices, resolves the k-means configuration
// (zero values mean kmeans.DefaultConfig(cfg.Seed)), and returns the
// L1-normalised BBVs randomly projected to cfg.ProjectDims dimensions.
func project(slices []Slice, cfg Config) ([][]float64, kmeans.Config, error) {
	if err := cfg.validate(); err != nil {
		return nil, kmeans.Config{}, err
	}
	if len(slices) == 0 {
		return nil, kmeans.Config{}, fmt.Errorf("simpoint: no slices")
	}
	kcfg := cfg.KMeans
	if kcfg.MaxIter == 0 && kcfg.Restarts == 0 {
		kcfg = kmeans.DefaultConfig(cfg.Seed)
	}
	proj, err := bbv.NewProjector(len(slices[0].BBV), cfg.ProjectDims, cfg.Seed)
	if err != nil {
		return nil, kmeans.Config{}, err
	}
	points := make([][]float64, len(slices))
	for i, s := range slices {
		v := append([]float64(nil), s.BBV...)
		bbv.NormalizeL1(v)
		points[i] = proj.Project(v)
	}
	return points, kcfg, nil
}

// Analyze runs the complete pipeline: Profile then Cluster.
func Analyze(p *program.Program, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	slices, total, err := Profile(p, cfg.SliceLen)
	if err != nil {
		return nil, err
	}
	return Cluster(p.Name, slices, total, cfg)
}

// choosePoints picks, per cluster, the slice whose projected BBV is nearest
// the centroid, weighting it by the cluster's share of the total weight
// mass. With nil weights every slice weighs 1, so a cluster's mass is its
// population (exactly: the sums are of small integers). It also returns
// the total mass.
func choosePoints(slices []Slice, projected [][]float64, res *kmeans.Result, weights []float64) ([]Point, float64) {
	best := make([]int, res.K)
	bestD := make([]float64, res.K)
	mass := make([]float64, res.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.MaxFloat64
	}
	var total float64
	for i, p := range projected {
		c := res.Assign[i]
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		mass[c] += w
		total += w
		if d := bbv.SqDist(p, res.Centroids[c]); d < bestD[c] {
			best[c], bestD[c] = i, d
		}
	}
	pts := make([]Point, 0, res.K)
	for c, idx := range best {
		if idx < 0 {
			continue
		}
		s := slices[idx]
		pts = append(pts, Point{
			SliceIndex: s.Index,
			Start:      s.Start,
			Len:        s.Len,
			Weight:     mass[c] / total,
			Cluster:    c,
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].SliceIndex < pts[j].SliceIndex })
	return pts, total
}

// Reduce returns a copy of the result keeping only the heaviest points whose
// cumulative weight reaches percentile (in (0, 1]), the paper's
// "90th-percentile simulation points" (Section IV-C). Weights are kept
// unrenormalised, matching the paper's weighted-average methodology (the
// aggregation normalises by total weight).
func (r *Result) Reduce(percentile float64) (*Result, error) {
	if percentile <= 0 || percentile > 1 {
		return nil, fmt.Errorf("simpoint: percentile %v out of (0,1]", percentile)
	}
	byWeight := append([]Point(nil), r.Points...)
	sort.Slice(byWeight, func(i, j int) bool {
		if byWeight[i].Weight != byWeight[j].Weight {
			return byWeight[i].Weight > byWeight[j].Weight
		}
		return byWeight[i].SliceIndex < byWeight[j].SliceIndex
	})
	var kept []Point
	acc := 0.0
	for _, pt := range byWeight {
		kept = append(kept, pt)
		acc += pt.Weight
		if acc >= percentile-1e-12 {
			break
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].SliceIndex < kept[j].SliceIndex })
	out := *r
	out.Points = kept
	return &out, nil
}

// VarianceSweep reruns clustering at fixed k values and reports the average
// within-cluster variance for each — the paper's Figure 4 ("as number of
// available clusters decrease, the phases try to adjust themselves within
// these clusters at the expense of accuracy").
func VarianceSweep(slices []Slice, ks []int, cfg Config) (map[int]float64, error) {
	points, kcfg, err := project(slices, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(ks))
	for _, k := range ks {
		res, err := kmeans.Run(points, k, kcfg)
		if err != nil {
			return nil, err
		}
		out[k] = res.WCSS / float64(len(points))
	}
	return out, nil
}

// Package subset implements benchmark-suite subsetting, the related-work
// methodology the paper discusses in Section V-A (Limaye & Adegbija,
// ISPASS 2018; Panda et al., HPCA 2018; Joshua et al., IISWC 2006): each
// benchmark is characterised by a vector of microarchitecture-level
// features, features are z-score normalised, benchmarks are clustered, and
// one representative per cluster forms a subset of the suite that preserves
// its behavioural coverage at a fraction of the simulation cost.
//
// Where those works use PCA + hierarchical clustering over perf counters,
// this package reuses the reproduction's own substrate: features come from
// whole-run profiles (instruction mix, cache miss rates, branch MPKI, CPI)
// and clustering reuses internal/kmeans with BIC model selection — the same
// engine SimPoint uses for slices, applied across benchmarks.
package subset

import (
	"fmt"
	"math"
	"sort"

	"specsampling/internal/bbv"
	"specsampling/internal/cache"
	"specsampling/internal/kmeans"
	"specsampling/internal/pin"
	"specsampling/internal/pintool"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// Features is one benchmark's characterisation vector.
type Features struct {
	// Benchmark is the full SPEC-style name.
	Benchmark string
	// Mix is the whole-run instruction distribution
	// (NO_MEM, MEM_R, MEM_W, MEM_RW).
	Mix [4]float64
	// L1DMiss, L2Miss, L3Miss are whole-run miss rates at the scaled
	// Table I hierarchy.
	L1DMiss, L2Miss, L3Miss float64
	// BranchMPKI is mispredictions per kilo-instruction on the Table III
	// machine's predictor.
	BranchMPKI float64
	// CPI is the Table III machine's whole-run CPI.
	CPI float64
}

// Vector flattens the features into the clustering space.
func (f Features) Vector() []float64 {
	return []float64{
		f.Mix[0], f.Mix[1], f.Mix[2], f.Mix[3],
		f.L1DMiss, f.L2Miss, f.L3Miss,
		f.BranchMPKI, f.CPI,
	}
}

// Characterize measures one benchmark's feature vector at the given scale.
// Cost is one whole-run execution with cache and timing models attached.
func Characterize(spec workload.Spec, scale workload.Scale) (Features, error) {
	prog, err := spec.Build(scale)
	if err != nil {
		return Features{}, err
	}
	hier, err := cache.NewHierarchy(cache.ScaledHierarchy(cache.TableIConfig(), scale.CacheDivs))
	if err != nil {
		return Features{}, err
	}
	core, err := timing.NewCore(timing.ScaledConfig(timing.TableIIIConfig(), scale.CacheDivs))
	if err != nil {
		return Features{}, err
	}
	engine := pin.NewEngine(prog)
	mix := pintool.NewLdStMix()
	ac := pintool.NewAllCache(hier)
	for _, tool := range []pin.Tool{mix, ac, core} {
		if err := engine.Attach(tool); err != nil {
			return Features{}, err
		}
	}
	n := engine.RunToEnd()

	c := core.Counters()
	l1d, l2, l3 := hier.MissRates()
	return Features{
		Benchmark:  spec.Name,
		Mix:        mix.Fractions(),
		L1DMiss:    l1d,
		L2Miss:     l2,
		L3Miss:     l3,
		BranchMPKI: c.BranchStats.MPKI(n),
		CPI:        c.CPI(),
	}, nil
}

// CharacterizeSuite measures every benchmark in specs.
func CharacterizeSuite(specs []workload.Spec, scale workload.Scale) ([]Features, error) {
	out := make([]Features, len(specs))
	for i, spec := range specs {
		f, err := Characterize(spec, scale)
		if err != nil {
			return nil, fmt.Errorf("subset: characterize %s: %w", spec.Name, err)
		}
		out[i] = f
	}
	return out, nil
}

// Group is one cluster of behaviourally similar benchmarks.
type Group struct {
	// Representative is the benchmark nearest the cluster centroid — the
	// one to simulate on the subset's behalf.
	Representative string
	// Members are all benchmarks in the cluster (including the
	// representative), sorted by distance to the centroid.
	Members []string
}

// Result is a suite subset.
type Result struct {
	// Groups are the clusters, ordered by size (largest first).
	Groups []Group
	// Coverage is len(Groups)/len(suite): the fraction of the suite that
	// must be simulated.
	Coverage float64
}

// Subset clusters the characterised benchmarks into at most maxGroups
// behavioural groups (BIC picks the actual count — often coarse for a
// ~29-point set, where it resolves only the memory-bound/compute-bound
// split) and selects a representative per group. Features are z-score
// normalised first so CPI (≈1) and MPKI (≈10) contribute comparably.
// SubsetK fixes the group count instead, the way Panda et al. pick a
// target subset size.
func Subset(features []Features, maxGroups int, seed uint64) (*Result, error) {
	return subset(features, maxGroups, seed, false)
}

// SubsetK clusters into exactly k groups (clamped to the benchmark count).
func SubsetK(features []Features, k int, seed uint64) (*Result, error) {
	return subset(features, k, seed, true)
}

func subset(features []Features, maxGroups int, seed uint64, fixed bool) (*Result, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("subset: no features")
	}
	if maxGroups <= 0 {
		return nil, fmt.Errorf("subset: maxGroups = %d", maxGroups)
	}
	vectors := make([][]float64, len(features))
	for i, f := range features {
		vectors[i] = f.Vector()
	}
	normalized := zscore(vectors)

	cfg := kmeans.DefaultConfig(seed)
	cfg.SampleSize = 0 // tiny point set; cluster on everything
	var res *kmeans.Result
	var err error
	if fixed {
		res, err = kmeans.Run(normalized, maxGroups, cfg)
	} else {
		res, _, err = kmeans.BestK(normalized, maxGroups, 0.9, cfg)
	}
	if err != nil {
		return nil, err
	}

	groups := make([]Group, res.K)
	type member struct {
		name string
		dist float64
	}
	members := make([][]member, res.K)
	for i, f := range features {
		c := res.Assign[i]
		members[c] = append(members[c], member{
			name: f.Benchmark,
			dist: bbv.SqDist(normalized[i], res.Centroids[c]),
		})
	}
	for c := range groups {
		sort.Slice(members[c], func(i, j int) bool { return members[c][i].dist < members[c][j].dist })
		for _, m := range members[c] {
			groups[c].Members = append(groups[c].Members, m.name)
		}
		groups[c].Representative = members[c][0].name
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i].Members) != len(groups[j].Members) {
			return len(groups[i].Members) > len(groups[j].Members)
		}
		return groups[i].Representative < groups[j].Representative
	})
	return &Result{
		Groups:   groups,
		Coverage: float64(res.K) / float64(len(features)),
	}, nil
}

// Representatives lists the subset's benchmarks in group order.
func (r *Result) Representatives() []string {
	out := make([]string, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = g.Representative
	}
	return out
}

// zscore normalises each dimension to zero mean and unit variance
// (constant dimensions become zero).
func zscore(vectors [][]float64) [][]float64 {
	if len(vectors) == 0 {
		return nil
	}
	dims := len(vectors[0])
	mean := make([]float64, dims)
	for _, v := range vectors {
		for d, x := range v {
			mean[d] += x
		}
	}
	for d := range mean {
		mean[d] /= float64(len(vectors))
	}
	std := make([]float64, dims)
	for _, v := range vectors {
		for d, x := range v {
			diff := x - mean[d]
			std[d] += diff * diff
		}
	}
	for d := range std {
		std[d] = math.Sqrt(std[d] / float64(len(vectors)))
	}
	out := make([][]float64, len(vectors))
	for i, v := range vectors {
		out[i] = make([]float64, dims)
		for d, x := range v {
			if std[d] > 0 {
				out[i][d] = (x - mean[d]) / std[d]
			}
		}
	}
	return out
}

package kmeans

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"specsampling/internal/bbv"
	"specsampling/internal/rng"
)

// gaussianClusters generates n points around k well-separated centres.
func gaussianClusters(k, perCluster, dim int, spread float64, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = float64(c*10) + r.Float64()
		}
	}
	var points [][]float64
	var truth []int
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = centres[c][j] + r.NormFloat64()*spread
			}
			points = append(points, p)
			truth = append(truth, c)
		}
	}
	return points, truth
}

func TestRunRecoversWellSeparatedClusters(t *testing.T) {
	points, truth := gaussianClusters(4, 50, 8, 0.2, 1)
	res, err := Run(points, 4, DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	// Every ground-truth cluster must map to exactly one found cluster.
	mapping := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := mapping[truth[i]]; ok && prev != c {
			t.Fatalf("ground-truth cluster %d split across found clusters %d and %d", truth[i], prev, c)
		}
		mapping[truth[i]] = c
	}
	if len(mapping) != 4 {
		t.Errorf("merged clusters: %v", mapping)
	}
}

func TestRunDeterministic(t *testing.T) {
	points, _ := gaussianClusters(3, 40, 5, 0.5, 2)
	a, err := Run(points, 3, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(points, 3, DefaultConfig(7))
	if a.WCSS != b.WCSS {
		t.Errorf("same seed, different WCSS: %v vs %v", a.WCSS, b.WCSS)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, 3, DefaultConfig(1)); err == nil {
		t.Error("accepted empty point set")
	}
	if _, err := Run([][]float64{{1}}, 0, DefaultConfig(1)); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := Run([][]float64{{1}, {1, 2}}, 1, DefaultConfig(1)); err == nil {
		t.Error("accepted ragged points")
	}
}

func TestRunClampsKToPointCount(t *testing.T) {
	points := [][]float64{{0}, {10}}
	res, err := Run(points, 10, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 2 {
		t.Errorf("K = %d with 2 points", res.K)
	}
}

func TestAssignmentsAreNearestCentroid(t *testing.T) {
	points, _ := gaussianClusters(5, 30, 6, 1.0, 4)
	res, err := Run(points, 5, DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		best, bestD := 0, math.MaxFloat64
		for c, cent := range res.Centroids {
			if d := bbv.SqDist(p, cent); d < bestD {
				best, bestD = c, d
			}
		}
		if res.Assign[i] != best {
			t.Fatalf("point %d assigned to %d, nearest is %d", i, res.Assign[i], best)
		}
	}
}

func TestSizesMatchAssignments(t *testing.T) {
	points, _ := gaussianClusters(3, 25, 4, 0.8, 5)
	res, err := Run(points, 3, DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, res.K)
	for _, c := range res.Assign {
		counts[c]++
	}
	total := 0
	for c := range counts {
		if counts[c] != res.Sizes[c] {
			t.Errorf("cluster %d: size %d vs counted %d", c, res.Sizes[c], counts[c])
		}
		total += counts[c]
	}
	if total != len(points) {
		t.Errorf("assigned %d of %d points", total, len(points))
	}
}

// Property: WCSS is non-increasing (on average) as k grows.
func TestWCSSDecreasesWithK(t *testing.T) {
	points, _ := gaussianClusters(6, 40, 8, 1.5, 6)
	var prev float64 = math.MaxFloat64
	for k := 1; k <= 8; k++ {
		res, err := Run(points, k, DefaultConfig(13))
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonicity from restarts/seeding at adjacent k.
		if res.WCSS > prev*1.05 {
			t.Errorf("WCSS at k=%d (%v) grew well above k=%d (%v)", k, res.WCSS, k-1, prev)
		}
		if res.WCSS < prev {
			prev = res.WCSS
		}
	}
}

func TestWCSSIsActualSum(t *testing.T) {
	points, _ := gaussianClusters(2, 20, 3, 0.5, 7)
	res, err := Run(points, 2, DefaultConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, p := range points {
		sum += bbv.SqDist(p, res.Centroids[res.Assign[i]])
	}
	if math.Abs(sum-res.WCSS) > 1e-9*(1+sum) {
		t.Errorf("WCSS %v != recomputed %v", res.WCSS, sum)
	}
}

func TestSubsamplingStillAssignsAllPoints(t *testing.T) {
	points, _ := gaussianClusters(3, 400, 5, 0.3, 8)
	cfg := DefaultConfig(17)
	cfg.SampleSize = 100
	res, err := Run(points, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != len(points) {
		t.Fatalf("assigned %d of %d", len(res.Assign), len(points))
	}
	if res.K != 3 {
		t.Errorf("K = %d under subsampling", res.K)
	}
	// The re-assignment of the full set is checked against a brute-force
	// pass; the bounded-vs-plain tests cannot catch an error here because
	// both kernels share it.
	sizes := make([]int, res.K)
	var wcss float64
	for i, p := range points {
		best, bestD := 0, sqDist(p, res.Centroids[0])
		for c := 1; c < res.K; c++ {
			if d := sqDist(p, res.Centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if res.Assign[i] != best {
			t.Fatalf("point %d assigned to %d, nearest centroid is %d", i, res.Assign[i], best)
		}
		sizes[best]++
		wcss += bestD
	}
	if !slices.Equal(res.Sizes, sizes) {
		t.Errorf("Sizes = %v, counted %v", res.Sizes, sizes)
	}
	// The kernel uses the expanded form ‖x‖² − 2·x·c + ‖c‖², so the sums
	// agree to rounding, not bit for bit.
	if math.Abs(res.WCSS-wcss) > 1e-9*wcss {
		t.Errorf("WCSS = %v, recomputed %v", res.WCSS, wcss)
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	points, _ := gaussianClusters(4, 60, 6, 0.15, 9)
	bestK, bestBIC := 0, math.Inf(-1)
	for k := 1; k <= 8; k++ {
		res, err := Run(points, k, DefaultConfig(19))
		if err != nil {
			t.Fatal(err)
		}
		b := bic(len(points), len(points[0]), res)
		if b > bestBIC {
			bestK, bestBIC = res.K, b
		}
	}
	if bestK < 3 || bestK > 5 {
		t.Errorf("BIC chose k=%d for 4 well-separated clusters", bestK)
	}
}

func TestBestKChoosesReasonableK(t *testing.T) {
	points, _ := gaussianClusters(5, 80, 8, 0.2, 10)
	res, scores, err := BestK(points, 20, 0.9, DefaultConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 4 || res.K > 8 {
		t.Errorf("BestK chose %d clusters for 5 ground-truth clusters", res.K)
	}
	if len(scores) == 0 {
		t.Error("no BIC scores returned")
	}
}

func TestBestKSingleCluster(t *testing.T) {
	// One tight blob: BestK should not invent many clusters.
	points, _ := gaussianClusters(1, 150, 6, 0.1, 11)
	res, _, err := BestK(points, 10, 0.9, DefaultConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Errorf("BestK chose %d clusters for a single blob", res.K)
	}
}

func TestBestKValidation(t *testing.T) {
	if _, _, err := BestK([][]float64{{1}}, 0, 0.9, DefaultConfig(1)); err == nil {
		t.Error("accepted maxK = 0")
	}
}

func TestCandidateKs(t *testing.T) {
	ks := candidateKs(35)
	if ks[0] != 1 {
		t.Error("candidates must start at 1")
	}
	if ks[len(ks)-1] != 35 {
		t.Error("candidates must include maxK")
	}
	ks = candidateKs(3)
	if len(ks) != 3 || ks[2] != 3 {
		t.Errorf("candidateKs(3) = %v", ks)
	}
	ks = candidateKs(12)
	if ks[len(ks)-1] != 12 {
		t.Errorf("candidateKs(12) = %v must end at 12", ks)
	}
}

// Property test: for random point clouds, Run returns a structurally valid
// result (total sizes, assignment range, WCSS >= 0).
func TestRunStructuralInvariants(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%6 + 1
		points, _ := gaussianClusters(3, 30, 4, 1.0, seed)
		res, err := Run(points, k, DefaultConfig(seed))
		if err != nil {
			return false
		}
		if res.K < 1 || res.K > k {
			return false
		}
		total := 0
		for _, s := range res.Sizes {
			if s <= 0 {
				return false // empty clusters must have been compacted away
			}
			total += s
		}
		if total != len(points) {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= res.K {
				return false
			}
		}
		return res.WCSS >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Package kmeans implements the clustering machinery SimPoint 3.0 uses to
// group execution slices: Lloyd's algorithm with k-means++ seeding,
// multiple restarts, and Bayesian Information Criterion (BIC) model
// selection over k (Pelleg & Moore's x-means BIC, as adopted by SimPoint).
//
// The kernels operate on a flat row-major copy of the point set with
// precomputed squared norms, reuse scratch buffers across Lloyd iterations
// and restarts, and parallelise both the assignment step and the
// independent candidate-k runs of BestK. On top of the norm-expansion
// pruning, Lloyd iterations maintain Elkan-style per-centroid
// triangle-inequality lower bounds (see bounded.go) that skip the distance
// computations for centroids provably farther than a point's assigned one —
// with a conservative floating-point margin sized so the bounded path is
// bit-identical to the plain scan. Results are deterministic in the
// configuration seed and, by construction, independent of Workers: every
// per-point decision is computed from the same inputs regardless of how
// points are partitioned across goroutines, and all floating-point
// reductions (WCSS, centroid sums) happen in a fixed serial order.
package kmeans

import (
	"fmt"
	"math"
	"sync"
	"time"

	"specsampling/internal/obs"
	"specsampling/internal/rng"
	"specsampling/internal/sched"
)

// Clustering metrics: restart/iteration counts are always-on atomics;
// candidate-k timings (seconds) are observed only when a tracer is
// installed.
var (
	runCounter        = obs.GetCounter("kmeans.runs")
	restartCounter    = obs.GetCounter("kmeans.restarts")
	iterCounter       = obs.GetCounter("kmeans.lloyd_iters")
	candidateKSeconds = obs.GetHistogram("kmeans.candidate_k_seconds")
)

// scratchPool recycles Lloyd scratch between runs — Run calls and the
// candidate runs of BestK sweeps — so the bounded kernel's n·k bounds are
// allocated once per worker rather than once per call.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Config controls a clustering run.
type Config struct {
	// Restarts is the number of independent k-means++ initialisations; the
	// best (lowest within-cluster sum of squares) run wins.
	Restarts int
	// MaxIter bounds Lloyd iterations per restart.
	MaxIter int
	// Seed makes the run deterministic.
	Seed uint64
	// SampleSize, when > 0 and smaller than the point count, clusters on a
	// deterministic subsample and then assigns all points to the resulting
	// centroids. SimPoint supports the same optimisation for very long
	// programs (tens of thousands of slices).
	SampleSize int
	// Workers bounds the parallelism of the assignment kernel and of
	// BestK's candidate-k runs; <= 0 uses GOMAXPROCS. The result is
	// identical for every worker count.
	Workers int
}

// DefaultConfig returns the configuration used throughout the reproduction.
func DefaultConfig(seed uint64) Config {
	return Config{Restarts: 3, MaxIter: 40, Seed: seed, SampleSize: 4096}
}

// Normalize resolves zero values to their documented defaults: Restarts 1,
// MaxIter 40 (Workers stays as-is and resolves through sched.Workers at the
// point of use, so a Config normalised on one machine is portable to
// another). This is the single place kmeans defaults live; Run and BestK
// call it on entry, so a zero Config (plus a k) is always safe.
//
// Note the deliberate asymmetry with DefaultConfig: a zero Restarts
// normalises to 1 — the historical behaviour direct Run callers rely on for
// bit-identical results — while DefaultConfig opts into 3 restarts and
// subsampling for the pipeline.
func (c Config) Normalize() Config {
	if c.Restarts <= 0 {
		c.Restarts = 1
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 40
	}
	return c
}

// Result is a clustering of a point set.
type Result struct {
	// K is the number of clusters actually used (clusters may come out
	// empty and are dropped, so K can be below the requested k).
	K int
	// Assign maps each point index to its cluster in [0, K).
	Assign []int
	// Centroids are the cluster centres.
	Centroids [][]float64
	// Sizes counts points per cluster.
	Sizes []int
	// WCSS is the total within-cluster sum of squared distances.
	WCSS float64
}

// ------------------------------------------------------------- flat layout --

// matrix is a flat row-major point set: row i is data[i*d : (i+1)*d].
// norm[i] and snorm[i] hold ‖xᵢ‖² and ‖xᵢ‖, precomputed once so the
// assignment kernel can expand ‖x−c‖² = ‖x‖² − 2·x·c + ‖c‖² and prune
// candidate centroids with the norm lower bound (‖x‖−‖c‖)² ≤ ‖x−c‖².
// maxSnorm is the largest point norm — the scale the bounded kernel's
// floating-point safety margin derives from.
type matrix struct {
	data     []float64
	norm     []float64
	snorm    []float64
	maxSnorm float64
	n, d     int
}

func (m *matrix) row(i int) []float64 { return m.data[i*m.d : (i+1)*m.d] }

// flatten copies points into a matrix and precomputes the per-point norms.
func flatten(points [][]float64) *matrix {
	n, d := len(points), len(points[0])
	m := &matrix{
		data:  make([]float64, n*d),
		norm:  make([]float64, n),
		snorm: make([]float64, n),
		n:     n,
		d:     d,
	}
	for i, p := range points {
		copy(m.data[i*d:], p)
		var s float64
		for _, x := range p {
			s += x * x
		}
		m.norm[i] = s
		sq := math.Sqrt(s)
		m.snorm[i] = sq
		if sq > m.maxSnorm {
			m.maxSnorm = sq
		}
	}
	return m
}

// gather builds the submatrix of rows idx.
func (m *matrix) gather(idx []int) *matrix {
	out := &matrix{
		data:  make([]float64, len(idx)*m.d),
		norm:  make([]float64, len(idx)),
		snorm: make([]float64, len(idx)),
		n:     len(idx),
		d:     m.d,
	}
	for i, j := range idx {
		copy(out.data[i*m.d:(i+1)*m.d], m.row(j))
		out.norm[i] = m.norm[j]
		out.snorm[i] = m.snorm[j]
		if out.snorm[i] > out.maxSnorm {
			out.maxSnorm = out.snorm[i]
		}
	}
	return out
}

// scratch holds every buffer one Lloyd run needs; it is reused across
// iterations, restarts and (through ensure) the candidate runs of a BestK
// sweep, so the inner loop performs no allocation.
type scratch struct {
	cents    []float64 // k*d flat centroids
	oldCents []float64 // k*d centroids before the last update (movement)
	sums     []float64 // k*d accumulation buffer for the update step
	cnorm    []float64 // k: ‖c‖² per centroid
	csqrt    []float64 // k: ‖c‖ per centroid (pruning bound)
	move     []float64 // k: bound decay per centroid (movement + margin)
	ccHalf   []float64 // k: k-means++ half centre-to-newest-centre distances
	sizes    []int     // k
	assign   []int     // n: current assignment
	prev     []int     // n: previous iteration's assignment
	near     []int     // n: k-means++ index of the nearest centre
	minD     []float64 // n: distance to the assigned centroid
	lb       []float64 // n*k: lower bound on each point-centroid distance
	d2       []float64 // n: k-means++ D² weights
}

// ensure (re)sizes every buffer for an (n, k, d) run, growing allocations
// only when a previous use was smaller. No buffer carries state between
// runs: each is fully written before it is read (cents, d2, near and ccHalf
// by seeding, sums and sizes by zeroing loops, assign by the -1 reset,
// minD/lb by the assignment pass, move by the update step), so reuse across
// Run calls and BestK candidates is safe.
func (sc *scratch) ensure(n, k, d int) {
	sc.cents = growFloat(sc.cents, k*d)
	sc.oldCents = growFloat(sc.oldCents, k*d)
	sc.sums = growFloat(sc.sums, k*d)
	sc.cnorm = growFloat(sc.cnorm, k)
	sc.csqrt = growFloat(sc.csqrt, k)
	sc.move = growFloat(sc.move, k)
	sc.ccHalf = growFloat(sc.ccHalf, k)
	if cap(sc.sizes) < k {
		sc.sizes = make([]int, k)
	}
	sc.sizes = sc.sizes[:k]
	if cap(sc.assign) < n {
		sc.assign = make([]int, n)
		sc.prev = make([]int, n)
		sc.near = make([]int, n)
	}
	sc.assign, sc.prev, sc.near = sc.assign[:n], sc.prev[:n], sc.near[:n]
	sc.minD = growFloat(sc.minD, n)
	sc.lb = growFloat(sc.lb, n*k)
	sc.d2 = growFloat(sc.d2, n)
}

// growFloat reslices b to length n, reallocating only if the capacity is
// insufficient.
func growFloat(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// minParallelOps gates the parallel assignment path: below this many
// multiply-adds per pass the goroutine fan-out costs more than it saves.
const minParallelOps = 1 << 15

// parallelChunks splits [0, n) into contiguous chunks across workers.
// Chunk boundaries affect only which goroutine computes an index, never the
// value computed for it, so results are identical for every worker count.
func parallelChunks(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// assignPoints writes, for every point, the nearest centroid into sc.assign
// and the (clamped non-negative) squared distance into sc.minD. Distances
// use the expanded form ‖x‖² − 2·x·c + ‖c‖²; a centroid whose norm lower
// bound (‖x‖−‖c‖)² cannot beat the best distance so far is pruned without
// touching its coordinates. Ties keep the lowest centroid index.
func assignPoints(m *matrix, sc *scratch, k, workers int) {
	d := m.d
	if workers > 1 && m.n*k*d < minParallelOps {
		workers = 1
	}
	parallelChunks(workers, m.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			px := m.row(i)
			pn, ps := m.norm[i], m.snorm[i]
			best, bestD := 0, math.MaxFloat64
			for c := 0; c < k; c++ {
				if lb := ps - sc.csqrt[c]; lb*lb >= bestD {
					continue
				}
				row := sc.cents[c*d : (c+1)*d]
				var dot float64
				for j, x := range px {
					dot += x * row[j]
				}
				if dist := pn - 2*dot + sc.cnorm[c]; dist < bestD {
					best, bestD = c, dist
				}
			}
			if bestD < 0 {
				bestD = 0 // the expansion can go slightly negative at zero distance
			}
			sc.assign[i] = best
			sc.minD[i] = bestD
		}
	})
}

// refreshCentroidNorms recomputes ‖c‖² and ‖c‖ for the first k centroids.
func refreshCentroidNorms(sc *scratch, k, d int) {
	for c := 0; c < k; c++ {
		row := sc.cents[c*d : (c+1)*d]
		var s float64
		for _, x := range row {
			s += x * x
		}
		sc.cnorm[c] = s
		sc.csqrt[c] = math.Sqrt(s)
	}
}

// Run clusters points into at most k groups. Points must be non-empty and
// share a dimensionality. k is clamped to the point count.
func Run(points [][]float64, k int, cfg Config) (*Result, error) {
	if err := validatePoints(points, k); err != nil {
		return nil, err
	}
	return runFlat(flatten(points), k, cfg, true)
}

// validatePoints checks the shared preconditions of Run and BestK.
func validatePoints(points [][]float64, k int) error {
	if len(points) == 0 {
		return fmt.Errorf("kmeans: no points")
	}
	if k <= 0 {
		return fmt.Errorf("kmeans: k = %d", k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	return nil
}

// runFlat is the clustering engine behind Run and the BestK sweep: it
// operates on an already-flattened matrix so a candidate sweep flattens the
// point set once, and draws its Lloyd buffers from scratchPool (grown as
// needed) so back-to-back runs do not reallocate them. bounded selects the
// triangle-inequality kernel (the default); the plain kernel is kept as the
// bit-identical reference the determinism tests compare against.
func runFlat(m *matrix, k int, cfg Config, bounded bool) (*Result, error) {
	if k > m.n {
		k = m.n
	}
	cfg = cfg.Normalize()
	workers := sched.Workers(cfg.Workers)
	runCounter.Add(1)

	train := m
	sampled := false
	if cfg.SampleSize > 0 && cfg.SampleSize < m.n {
		train = m.gather(sampleIndices(m.n, cfg.SampleSize, cfg.Seed))
		if k > train.n {
			k = train.n
		}
		sampled = true
	}

	r := rng.New(cfg.Seed ^ 0x6b6d)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.ensure(train.n, k, train.d)
	var best *Result
	for restart := 0; restart < cfg.Restarts; restart++ {
		restartCounter.Add(1)
		wcss := lloyd(train, k, cfg.MaxIter, workers, &r, sc, bounded)
		if best == nil || wcss < best.WCSS {
			best = materialize(train, sc, k, wcss)
		}
	}

	if sampled {
		// Re-assign the full point set to the trained centroids.
		best = assignMatrix(m, best.Centroids, workers)
	}
	return best, nil
}

// sampleIndices picks n distinct indices from [0, total) deterministically,
// evenly spread with a hashed offset so the sample covers the whole
// execution rather than a prefix.
func sampleIndices(total, n int, seed uint64) []int {
	idx := make([]int, n)
	step := float64(total) / float64(n)
	r := rng.New(seed ^ 0x5a3)
	off := r.Float64() * step
	for i := range idx {
		v := int(off + float64(i)*step)
		if v >= total {
			v = total - 1
		}
		idx[i] = v
	}
	return idx
}

// lloyd runs one k-means++ initialisation followed by Lloyd iterations on
// the flat matrix, leaving the final assignment, sizes and centroids in sc
// and returning the WCSS. The final iteration's assignment pass doubles as
// the result pass — no extra full-distance sweep is needed afterwards.
//
// With bounded set, seeding skips D² updates the triangle inequality rules
// out, and iterations past the first use the per-centroid bounds kernel
// (bounded.go): per point, the exact distance to the currently assigned
// centroid is recomputed, and a rival's distance only when its maintained
// lower bound cannot rule it out. The safety margin makes every skip
// decision immune to floating-point slop, so both kernels produce
// bit-identical assignments, centroids and WCSS — pinned by
// TestBoundedMatchesPlain*.
func lloyd(m *matrix, k, maxIter, workers int, r *rng.RNG, sc *scratch, bounded bool) float64 {
	margin := 0.0
	if bounded {
		margin = m.boundsMargin()
	}
	seedPlusPlus(m, k, r, sc, bounded, margin)
	for i := range sc.assign {
		sc.assign[i] = -1
	}
	var wcss float64
	for iter := 0; ; iter++ {
		refreshCentroidNorms(sc, k, m.d)
		copy(sc.prev, sc.assign)
		if !bounded {
			assignPoints(m, sc, k, workers)
		} else if iter == 0 {
			assignPointsFull(m, sc, k, workers, margin)
		} else {
			assignPointsBounded(m, sc, k, workers, margin)
		}

		// Serial reduction in index order: sizes, WCSS and the convergence
		// flag are identical for every worker count.
		changed := false
		for c := 0; c < k; c++ {
			sc.sizes[c] = 0
		}
		wcss = 0
		for i := 0; i < m.n; i++ {
			a := sc.assign[i]
			if a != sc.prev[i] {
				changed = true
			}
			sc.sizes[a]++
			wcss += sc.minD[i]
		}
		if (!changed && iter > 0) || iter >= maxIter {
			// The assignment (and WCSS) already reflect the current
			// centroids, so the loop exits with a coherent result in sc.
			iterCounter.Add(int64(iter + 1))
			return wcss
		}
		if bounded {
			copy(sc.oldCents[:k*m.d], sc.cents[:k*m.d])
		}
		updateCentroids(m, sc, k)
		if bounded {
			centroidMoves(m, sc, k, margin)
		}
	}
}

// updateCentroids recomputes each centroid as the mean of its points.
// Empty clusters are re-seeded at the point currently farthest from its
// assigned centroid (the standard fix for dead centroids); the point's
// distance is then cleared so successive dead centroids pick distinct
// points.
func updateCentroids(m *matrix, sc *scratch, k int) {
	d := m.d
	for i := range sc.sums[:k*d] {
		sc.sums[i] = 0
	}
	for i := 0; i < m.n; i++ {
		row := m.row(i)
		cent := sc.sums[sc.assign[i]*d : (sc.assign[i]+1)*d]
		for j, x := range row {
			cent[j] += x
		}
	}
	for c := 0; c < k; c++ {
		if sc.sizes[c] == 0 {
			far, farD := 0, -1.0
			for i, dd := range sc.minD {
				if dd > farD {
					far, farD = i, dd
				}
			}
			sc.minD[far] = -1
			copy(sc.cents[c*d:(c+1)*d], m.row(far))
			continue
		}
		inv := 1 / float64(sc.sizes[c])
		for j := 0; j < d; j++ {
			sc.cents[c*d+j] = sc.sums[c*d+j] * inv
		}
	}
}

// materialize builds a Result from the scratch state of a finished Lloyd
// run, compacting away empty clusters. It threads the final iteration's
// assignment and WCSS through instead of re-deriving them with another full
// distance pass.
func materialize(m *matrix, sc *scratch, k int, wcss float64) *Result {
	remap := make([]int, k)
	var kept [][]float64
	var keptSizes []int
	for c := 0; c < k; c++ {
		if sc.sizes[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(kept)
		kept = append(kept, append([]float64(nil), sc.cents[c*m.d:(c+1)*m.d]...))
		keptSizes = append(keptSizes, sc.sizes[c])
	}
	assign := make([]int, m.n)
	for i, a := range sc.assign {
		assign[i] = remap[a]
	}
	return &Result{
		K:         len(kept),
		Assign:    assign,
		Centroids: kept,
		Sizes:     keptSizes,
		WCSS:      wcss,
	}
}

// assignMatrix builds a Result by assigning every row of m to its nearest
// centroid, dropping empty clusters.
func assignMatrix(m *matrix, centroids [][]float64, workers int) *Result {
	k, d := len(centroids), m.d
	sc := &scratch{
		cents:  make([]float64, k*d),
		cnorm:  make([]float64, k),
		csqrt:  make([]float64, k),
		sizes:  make([]int, k),
		assign: make([]int, m.n),
		minD:   make([]float64, m.n),
	}
	for c, cent := range centroids {
		copy(sc.cents[c*d:(c+1)*d], cent)
	}
	refreshCentroidNorms(sc, k, d)
	assignPoints(m, sc, k, workers)
	var wcss float64
	for i := 0; i < m.n; i++ {
		sc.sizes[sc.assign[i]]++
		wcss += sc.minD[i]
	}
	// Compact away empty clusters so K reflects reality.
	remap := make([]int, k)
	var kept [][]float64
	var keptSizes []int
	for c := 0; c < k; c++ {
		if sc.sizes[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(kept)
		kept = append(kept, centroids[c])
		keptSizes = append(keptSizes, sc.sizes[c])
	}
	for i := range sc.assign {
		sc.assign[i] = remap[sc.assign[i]]
	}
	return &Result{
		K:         len(kept),
		Assign:    sc.assign,
		Centroids: kept,
		Sizes:     keptSizes,
		WCSS:      wcss,
	}
}

// assignAll builds a Result by assigning every point to its nearest
// centroid, dropping empty clusters. It is the slice-of-slices entry point
// kept for callers that do not hold a flat matrix (the weighted engine).
func assignAll(points [][]float64, centroids [][]float64) *Result {
	return assignMatrix(flatten(points), centroids, 1)
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting,
// writing them into sc.cents. The RNG consumption order matches the
// original slice-based implementation exactly, so seeding is bit-compatible
// with earlier versions of this package. With bounded set the D² updates
// go through updateD2Bounded, which produces the same d2 bits.
func seedPlusPlus(m *matrix, k int, r *rng.RNG, sc *scratch, bounded bool, margin float64) {
	d := m.d
	first := r.Intn(m.n)
	copy(sc.cents[0:d], m.row(first))

	d2 := sc.d2
	c0 := sc.cents[0:d]
	for i := 0; i < m.n; i++ {
		d2[i] = sqDist(m.row(i), c0)
	}
	if bounded {
		clear(sc.near)
	}
	for picked := 1; picked < k; picked++ {
		var total float64
		for _, dd := range d2 {
			total += dd
		}
		var idx int
		if total <= 0 {
			// All points coincide with existing centroids; any choice works.
			idx = r.Intn(m.n)
		} else {
			target := r.Float64() * total
			acc := 0.0
			idx = m.n - 1
			for i, dd := range d2 {
				acc += dd
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := sc.cents[picked*d : (picked+1)*d]
		copy(c, m.row(idx))
		if bounded {
			updateD2Bounded(m, sc, picked, margin)
			continue
		}
		for i := 0; i < m.n; i++ {
			if dd := sqDist(m.row(i), c); dd < d2[i] {
				d2[i] = dd
			}
		}
	}
}

// sqDist is the exact squared Euclidean distance (the seeding path keeps
// the direct form so D² sampling is bit-stable; the assignment kernel uses
// the norm expansion instead).
func sqDist(a, b []float64) float64 {
	var sum float64
	for i, x := range a {
		d := x - b[i]
		sum += d * d
	}
	return sum
}

// BIC scores a clustering under the spherical-Gaussian model of Pelleg &
// Moore (x-means), the criterion SimPoint 3.0 uses to pick k. Larger is
// better.
func BIC(points [][]float64, res *Result) float64 {
	r := float64(len(points))
	k := float64(res.K)
	d := float64(len(points[0]))
	if len(points) <= res.K {
		return math.Inf(-1)
	}
	// Pooled variance estimate.
	sigma2 := res.WCSS / (r - k)
	if sigma2 <= 0 {
		sigma2 = 1e-12
	}
	var ll float64
	for _, size := range res.Sizes {
		rn := float64(size)
		if rn == 0 {
			continue
		}
		ll += rn*math.Log(rn) -
			rn*math.Log(r) -
			rn*d/2*math.Log(2*math.Pi*sigma2) -
			(rn-1)/2
	}
	params := k*(d+1) + 1
	return ll - params/2*math.Log(r)
}

// BestK runs clustering for a range of candidate k values up to maxK and
// returns the chosen result following SimPoint's rule: compute BIC for each
// candidate, then pick the smallest k whose BIC reaches at least threshold
// (e.g. 0.9) of the way from the minimum to the maximum BIC observed.
// It also returns the per-candidate results and scores keyed by k.
//
// Candidate runs are independent (each derives its own seed from cfg.Seed
// and k) and execute in parallel across cfg.Workers goroutines; the
// selection scan afterwards walks candidates in ascending order, so the
// choice is identical to a serial sweep.
//
// The sweep flattens the point set once and shares the matrix (with its
// precomputed norms) across every candidate run; Lloyd scratch buffers come
// from the package pool so concurrent candidates allocate at most one
// scratch per worker.
// Centre buffers are thereby reused across k — results stay bit-identical
// to per-candidate Run calls because every buffer is fully rewritten before
// use and each candidate still derives its own seed.
func BestK(points [][]float64, maxK int, threshold float64, cfg Config) (*Result, map[int]float64, error) {
	if maxK <= 0 {
		return nil, nil, fmt.Errorf("kmeans: maxK = %d", maxK)
	}
	if err := validatePoints(points, 1); err != nil {
		return nil, nil, err
	}
	m := flatten(points)
	run := func(_ [][]float64, k int, sub Config) (*Result, error) {
		return runFlat(m, k, sub, true)
	}
	return bestKWith(points, maxK, threshold, cfg, run)
}

// bestKWith is the shared candidate sweep behind BestK and BestKWeighted.
func bestKWith(points [][]float64, maxK int, threshold float64, cfg Config,
	run func([][]float64, int, Config) (*Result, error)) (*Result, map[int]float64, error) {
	if maxK <= 0 {
		return nil, nil, fmt.Errorf("kmeans: maxK = %d", maxK)
	}
	if threshold <= 0 || threshold > 1 {
		threshold = 0.9
	}
	candidates := candidateKs(maxK)
	workers := sched.Workers(cfg.Workers)
	if workers > len(candidates) {
		workers = len(candidates)
	}
	timed := obs.Enabled()

	type cand struct {
		res *Result
		bic float64
		err error
	}
	out := make([]cand, len(candidates))
	runOne := func(i int) {
		k := candidates[i]
		sub := cfg
		sub.Seed = cfg.Seed ^ uint64(k)*0x9e37
		if workers > 1 {
			// The candidate sweep already saturates the worker budget;
			// keep each run's assignment kernel serial to avoid
			// oversubscription. Results do not depend on this choice.
			sub.Workers = 1
		}
		var began time.Time
		if timed {
			//lint:ignore nondet instrumentation-only clock read, gated on obs.Enabled; never flows into results
			began = time.Now()
		}
		res, err := run(points, k, sub)
		if timed {
			//lint:ignore nondet instrumentation-only duration for the candidate-k histogram; never flows into results
			candidateKSeconds.Observe(time.Since(began).Seconds())
		}
		if err != nil {
			out[i].err = err
			return
		}
		out[i] = cand{res: res, bic: BIC(points, res)}
	}
	if workers <= 1 {
		for i := range candidates {
			runOne(i)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range candidates {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runOne(i)
			}(i)
		}
		wg.Wait()
	}

	results := make(map[int]*Result, len(candidates))
	scores := make(map[int]float64, len(candidates))
	minB, maxB := math.Inf(1), math.Inf(-1)
	for i, k := range candidates {
		if out[i].err != nil {
			return nil, nil, out[i].err
		}
		results[k] = out[i].res
		scores[k] = out[i].bic
		if out[i].bic < minB {
			minB = out[i].bic
		}
		if out[i].bic > maxB {
			maxB = out[i].bic
		}
	}
	span := maxB - minB
	for _, k := range candidates {
		if span == 0 || scores[k] >= minB+threshold*span {
			return results[k], scores, nil
		}
	}
	// Unreachable: the max-scoring k always passes.
	last := candidates[len(candidates)-1]
	return results[last], scores, nil
}

// candidateKs enumerates the k values BestK evaluates: every k up to 10,
// then steps of 2 (to keep the search cheap for large MaxK, in the spirit
// of SimPoint's binary search), always including maxK itself.
func candidateKs(maxK int) []int {
	var ks []int
	for k := 1; k <= maxK && k <= 10; k++ {
		ks = append(ks, k)
	}
	for k := 12; k <= maxK; k += 2 {
		ks = append(ks, k)
	}
	if len(ks) == 0 || ks[len(ks)-1] != maxK {
		ks = append(ks, maxK)
	}
	return ks
}

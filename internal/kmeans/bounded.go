package kmeans

import (
	"math"

	"specsampling/internal/obs"
)

// The bounded assignment kernel: Elkan-style per-centroid triangle-inequality
// bounds that skip distance computations for centroids provably farther than
// a point's assigned one.
//
// Per point i and centroid c the kernel keeps lb[i·k+c], a lower bound on
// the distance (not squared) from the point to the centroid. A full scan
// sets every bound from the exact distance (or, for centroids the norm bound
// pruned, from |‖x‖−‖c‖|); after every centroid update each bound decays by
// its own centroid's movement (triangle inequality: a centroid that moved
// by m cannot have come more than m closer). At the next iteration the
// kernel recomputes the exact distance to the assigned centroid a — with the
// plain scan's expression, so minD stays bit-exact — and computes a rival's
// distance only when neither its bound nor the norm bound puts it beyond
//
//	t = √d(x, c_a) + margin.
//
// When no rival needs computing the point keeps its centroid (a skip). When
// some do, the winner w of the partial scan is accepted only if
//
//	√d(x, c_w) + margin < lb[i·k+c] for every c ≠ w,
//
// and otherwise the point falls back to the plain scan, verbatim.
//
// Bit-identical results. The decisions reason about true distances, but the
// kernels compute floating-point approximations. margin is an absolute
// slack in the distance domain chosen far above the worst-case rounding
// error of the norm-expansion distance (≲ 2·‖x‖max·√((d+3)·ε), from the
// cancellation bound of ‖x‖²−2x·c+‖c‖² followed by √): every bound is
// deflated by margin when set and again on every decay, so each stays a
// true lower bound despite rounding. An accepted winner is therefore
// strictly closer than every rival by a gap the plain scan's rounding cannot
// close: the plain loop reaches w unpruned, picks it, and computes the same
// minD bits with the same expression. Ties — where the plain scan's
// lowest-index preference matters — always fail the guard and fall back.
// Assignments, minD, and therefore centroid updates, WCSS and convergence
// are bit-identical to the plain kernel for every worker count — pinned by
// the TestBoundedMatchesPlain* determinism tests and FuzzBoundedMatchesPlain.

// Bounded-kernel metrics (always-on atomics, added once per chunk): skips
// are point-iterations resolved without computing any rival distance, scans
// all others, and fallbacks the scans whose partial-scan winner failed the
// guard and re-ran the plain loop.
var (
	boundsSkipCounter     = obs.GetCounter("kmeans.bounds_skips")
	boundsScanCounter     = obs.GetCounter("kmeans.bounds_scans")
	boundsFallbackCounter = obs.GetCounter("kmeans.bounds_fallbacks")
)

// boundsMargin is the floating-point safety margin of the bounded kernel
// for this point set, in the (non-squared) distance domain. The worst-case
// rounding error of one norm-expansion distance is ≲ 2·maxSnorm·√((d+3)·ε);
// the factor 64 covers the handful of additional roundings accumulated by
// bound maintenance with orders of magnitude to spare, while staying far
// below any distance gap the bounds could usefully exploit.
func (m *matrix) boundsMargin() float64 {
	const eps = 0x1p-52
	return 64 * m.maxSnorm * math.Sqrt(float64(m.d+4)*eps)
}

// scanPointFull runs the plain pruned scan for point i — the exact loop of
// assignPoints, so best and bestD are bit-identical to the plain kernel —
// while additionally writing lb, the point's margin-deflated lower bounds on
// the distance to every centroid. Computed distances contribute their exact
// value; centroids pruned by the norm bound contribute |‖x‖−‖c‖| ≤ d(x, c).
func scanPointFull(m *matrix, sc *scratch, i, k int, margin float64, lb []float64) (best int, bestD float64) {
	d := m.d
	px := m.row(i)
	pn, ps := m.norm[i], m.snorm[i]
	best, bestD = 0, math.MaxFloat64
	for c := 0; c < k; c++ {
		if nb := ps - sc.csqrt[c]; nb*nb >= bestD {
			lb[c] = math.Abs(nb) - margin
			continue
		}
		row := sc.cents[c*d : (c+1)*d]
		var dot float64
		for j, x := range px {
			dot += x * row[j]
		}
		dist := pn - 2*dot + sc.cnorm[c]
		lb[c] = math.Sqrt(max(dist, 0)) - margin
		if dist < bestD {
			best, bestD = c, dist
		}
	}
	if bestD < 0 {
		bestD = 0 // the expansion can go slightly negative at zero distance
	}
	return best, bestD
}

// assignPointsFull is the bounded kernel's full-scan pass: plain-identical
// assignment plus initial lower bounds. It runs on the first Lloyd
// iteration, when no bounds exist yet.
func assignPointsFull(m *matrix, sc *scratch, k, workers int, margin float64) {
	if workers > 1 && m.n*k*m.d < minParallelOps {
		workers = 1
	}
	parallelChunks(workers, m.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sc.assign[i], sc.minD[i] = scanPointFull(m, sc, i, k, margin, sc.lb[i*k:(i+1)*k])
		}
	})
	boundsScanCounter.Add(int64(m.n))
}

// assignPointsBounded is the bounded kernel's steady-state pass. Per point
// it recomputes the exact distance to the previously assigned centroid,
// applies the last update's decay (sc.move) to the point's bounds, and
// computes only the rivals that the bounds cannot exclude; the partial
// scan's winner stands only if the guard proves every other centroid
// strictly farther, and otherwise the point re-runs the plain scan.
func assignPointsBounded(m *matrix, sc *scratch, k, workers int, margin float64) {
	d := m.d
	if workers > 1 && m.n*k*d < minParallelOps {
		workers = 1
	}
	parallelChunks(workers, m.n, func(lo, hi int) {
		var cSkips, cScans, cFallbacks int64
		for i := lo; i < hi; i++ {
			lb := sc.lb[i*k : (i+1)*k]
			a := sc.assign[i]
			px := m.row(i)
			pn, ps := m.norm[i], m.snorm[i]
			row := sc.cents[a*d : (a+1)*d]
			var dot float64
			for j, x := range px {
				dot += x * row[j]
			}
			da := pn - 2*dot + sc.cnorm[a]
			if da < 0 {
				da = 0
			}
			ra := math.Sqrt(da)
			t := ra + margin

			// One pass per point both applies the last update's decay and
			// partially scans the rivals the decayed bounds admit.
			best, bestD, bestR := a, da, ra
			computed := false
			for c, mv := range sc.move[:k] {
				l := lb[c] - mv
				lb[c] = l
				if l > t || c == a {
					continue
				}
				if nb := math.Abs(ps-sc.csqrt[c]) - margin; nb > lb[c] {
					lb[c] = nb
					if nb > t {
						continue
					}
				}
				row := sc.cents[c*d : (c+1)*d]
				var dot float64
				for j, x := range px {
					dot += x * row[j]
				}
				dist := pn - 2*dot + sc.cnorm[c]
				r := math.Sqrt(max(dist, 0))
				lb[c] = r - margin
				computed = true
				if dist < bestD {
					best, bestD, bestR = c, dist, r
				}
			}
			lb[a] = ra - margin
			if !computed {
				// Every rival's bound exceeds t: the plain scan would find
				// each strictly farther than a. Keep a, refresh minD.
				sc.minD[i] = da
				cSkips++
				continue
			}
			cScans++
			// Rivals left uncomputed have lb > t ≥ bestR + margin; the
			// guard re-checks every bound, computed ones included.
			g := bestR + margin
			for c, l := range lb {
				if c != best && l <= g {
					best, bestD = scanPointFull(m, sc, i, k, margin, lb)
					cFallbacks++
					break
				}
			}
			if bestD < 0 {
				bestD = 0
			}
			sc.assign[i] = best
			sc.minD[i] = bestD
		}
		boundsSkipCounter.Add(cSkips)
		boundsScanCounter.Add(cScans)
		boundsFallbackCounter.Add(cFallbacks)
	})
}

// centroidMoves records in sc.move each centroid's movement over the last
// update step plus the safety margin — the amount by which every bound on
// that centroid decays before the next assignment pass.
func centroidMoves(m *matrix, sc *scratch, k int, margin float64) {
	d := m.d
	for c := 0; c < k; c++ {
		sc.move[c] = math.Sqrt(sqDist(sc.cents[c*d:(c+1)*d], sc.oldCents[c*d:(c+1)*d])) + margin
	}
}

// updateD2Bounded is the k-means++ D² update for the newest centre, picked,
// with a triangle-inequality skip: if half the distance from point i's
// nearest centre to the new one exceeds √d2[i] by the margin, the new
// centre is strictly farther than d2[i] and the plain update would leave it
// untouched. sqDist is the direct form, so the only rounding to cover is its
// small relative error, far inside margin.
func updateD2Bounded(m *matrix, sc *scratch, picked int, margin float64) {
	d := m.d
	c := sc.cents[picked*d : (picked+1)*d]
	for j := 0; j < picked; j++ {
		sc.ccHalf[j] = 0.5*math.Sqrt(sqDist(sc.cents[j*d:(j+1)*d], c)) - margin
	}
	d2, near := sc.d2, sc.near
	for i := 0; i < m.n; i++ {
		if h := sc.ccHalf[near[i]]; h > 0 && h*h > d2[i] {
			continue
		}
		if dd := sqDist(m.row(i), c); dd < d2[i] {
			d2[i] = dd
			near[i] = picked
		}
	}
}

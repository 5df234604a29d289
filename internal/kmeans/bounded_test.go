package kmeans

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"specsampling/internal/rng"
)

// The bounded (triangle-inequality) kernel must be invisible in the
// results: for every input, every seed and every worker count it must
// produce the same bits as the plain kernel it replaces. These tests sweep
// shapes from well-separated Gaussians to degenerate duplicate-heavy sets —
// the cases where a sloppy bound would silently flip a tie.

func TestBoundedMatchesPlainAcrossShapes(t *testing.T) {
	cases := []struct {
		name   string
		points [][]float64
		k      int
	}{
		{"separated", mustPoints(gaussianClusters(6, 60, 12, 0.3, 3)), 6},
		{"overlapping", mustPoints(gaussianClusters(5, 80, 8, 2.5, 5)), 5},
		{"more-k-than-structure", mustPoints(gaussianClusters(3, 40, 6, 0.4, 9)), 11},
		{"single-cluster", mustPoints(gaussianClusters(1, 200, 10, 1.0, 13)), 7},
		{"tiny", mustPoints(gaussianClusters(2, 3, 4, 0.2, 17)), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 42, 99, 12345} {
				cfg := Config{Restarts: 3, MaxIter: 40, Seed: seed}
				plain, err := RunPlain(tc.points, tc.k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bounded, err := Run(tc.points, tc.k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, plain, bounded, "seed="+strconv.FormatUint(seed, 10))
			}
		})
	}
}

// mustPoints drops gaussianClusters' truth labels.
func mustPoints(points [][]float64, _ []int) [][]float64 { return points }

// degenerateShape is one tie-heavy clustering input.
type degenerateShape struct {
	name   string
	points [][]float64
	k      int
}

// degenerateShapes are the inputs where the plain scan's lowest-index
// preference is observable: exact duplicates, coincident centroids, k above
// the distinct-point count, and zero vectors.
func degenerateShapes() []degenerateShape {
	dup := make([][]float64, 64)
	for i := range dup {
		// Only 4 distinct points, heavily duplicated, plus exact zeros.
		switch i % 4 {
		case 0:
			dup[i] = []float64{0, 0, 0}
		case 1:
			dup[i] = []float64{1, 0, 0}
		case 2:
			dup[i] = []float64{0, 1, 0}
		default:
			dup[i] = []float64{1, 0, 0} // duplicate of case 1
		}
	}
	mirror := make([][]float64, 40)
	for i := range mirror {
		// Symmetric pairs equidistant from the origin: distance ties
		// between mirrored centroids are exact in floating point.
		v := float64(i/2 + 1)
		if i%2 == 0 {
			mirror[i] = []float64{v, 1}
		} else {
			mirror[i] = []float64{-v, 1}
		}
	}
	return []degenerateShape{
		{"duplicates", dup, 8},
		{"all-identical", [][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}, {2, 2}}, 3},
		{"mirrored-ties", mirror, 6},
	}
}

// TestSeedBoundsAreLowerBounds pins what bounded seeding hands Lloyd's
// first iteration: every lb[i·k+c] is a lower bound on the distance from
// point i to centre c, whether updateD2Bounded computed that distance or
// skipped it by the triangle inequality, and near[i] is the first index of
// point i's nearest centre. The bounds start as NaN, so one left unwritten
// fails too.
func TestSeedBoundsAreLowerBounds(t *testing.T) {
	type input struct {
		name    string
		points  [][]float64
		weights []float64
		k       int
	}
	inputs := []input{{"gaussian", mustPoints(gaussianClusters(8, 200, 16, 0.3, 23)), nil, 8}}
	for _, name := range []string{"mcf_r", "lbm_r"} {
		inputs = append(inputs, input{name, SuiteFixture(t, name), nil, 35}) // simpoint.DefaultMaxK
	}
	for _, tc := range degenerateShapes() {
		inputs = append(inputs,
			input{tc.name, tc.points, nil, tc.k},
			input{tc.name + "/weighted", tc.points, fuzzWeights(len(tc.points)), tc.k})
	}
	for _, in := range inputs {
		m := flatten(in.points)
		m.w = in.weights
		k, margin := min(in.k, m.n), m.boundsMargin()
		for _, seed := range []uint64{0, 7, 1001} {
			sc := new(scratch)
			sc.ensure(m.n, k, m.d)
			for i := range sc.lb {
				sc.lb[i] = math.NaN()
			}
			r := rng.New(seed)
			seedPlusPlus(m, k, &r, sc, true, margin)
			for i := 0; i < m.n; i++ {
				nearest, nearestD := -1, math.Inf(1)
				for c := 0; c < k; c++ {
					dd := sqDist(m.row(i), sc.cents[c*m.d:(c+1)*m.d])
					if lb := sc.lb[i*k+c]; !(lb <= math.Sqrt(dd)) {
						t.Fatalf("%s/seed=%d: lb[%d·k+%d] = %v exceeds the distance %v", in.name, seed, i, c, lb, math.Sqrt(dd))
					}
					if dd < nearestD {
						nearest, nearestD = c, dd
					}
				}
				if sc.near[i] != nearest {
					t.Fatalf("%s/seed=%d: near[%d] = %d, want %d", in.name, seed, i, sc.near[i], nearest)
				}
			}
		}
	}
}

// TestBoundedMatchesPlainDegenerate covers the tie-heavy degenerateShapes.
func TestBoundedMatchesPlainDegenerate(t *testing.T) {
	for _, tc := range degenerateShapes() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{0, 7, 1001} {
				cfg := Config{Restarts: 2, MaxIter: 30, Seed: seed}
				plain, err := RunPlain(tc.points, tc.k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bounded, err := Run(tc.points, tc.k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, plain, bounded, tc.name+"/seed="+strconv.FormatUint(seed, 10))
			}
		})
	}
}

// TestBoundedMatchesPlainAcrossWorkerCounts pins the full cross-product:
// bounded results must equal the plain serial reference for every worker
// count, including through the subsampling path.
func TestBoundedMatchesPlainAcrossWorkerCounts(t *testing.T) {
	points, _ := gaussianClusters(8, 128, 8, 0.4, 7)
	ref := Config{Restarts: 3, MaxIter: 40, Seed: 99, SampleSize: 512, Workers: 1}
	plain, err := RunPlain(points, 8, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := ref
		cfg.Workers = workers
		bounded, err := Run(points, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, plain, bounded, "workers="+strconv.Itoa(workers))
	}
}

// TestBestKBoundedMatchesPlain pins the candidate sweep: the shared-matrix,
// scratch-pooled bounded sweep must reproduce the per-candidate plain sweep
// bit for bit — results, BIC scores and the chosen k.
func TestBestKBoundedMatchesPlain(t *testing.T) {
	points, _ := gaussianClusters(4, 80, 6, 0.3, 13)
	for _, workers := range []int{1, 4} {
		cfg := Config{Restarts: 3, MaxIter: 40, Seed: 21, SampleSize: 4096, Workers: workers}
		plainRes, plainBIC, err := BestKPlain(points, 12, 0.9, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, bic, err := BestK(points, 12, 0.9, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, plainRes, res, "bestk/workers="+strconv.Itoa(workers))
		if len(bic) != len(plainBIC) {
			t.Fatalf("BIC map sizes differ: %d != %d", len(bic), len(plainBIC))
		}
		for k, v := range plainBIC {
			if math.Float64bits(bic[k]) != math.Float64bits(v) {
				t.Fatalf("BIC[%d] %v != %v", k, bic[k], v)
			}
		}
	}
}

// TestBoundedMatchesPlainRandomized is a randomized cross-check over many
// small instances — cheap fuzzing for the skip decision.
func TestBoundedMatchesPlainRandomized(t *testing.T) {
	r := rng.New(0xb0b)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(60)
		d := 1 + r.Intn(6)
		k := 1 + r.Intn(8)
		points := make([][]float64, n)
		for i := range points {
			p := make([]float64, d)
			for j := range p {
				// Quantized coordinates provoke exact distance ties.
				p[j] = float64(r.Intn(5))
			}
			points[i] = p
		}
		cfg := Config{Restarts: 2, MaxIter: 25, Seed: uint64(trial)}
		plain, err := RunPlain(points, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := Run(points, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, plain, bounded, "trial="+strconv.Itoa(trial))
	}
}

// decodeFuzzInstance turns fuzz bytes into a small clustering instance:
// data[0] picks k in [1, 16], the low bits of data[1] the dimension in
// [1, 4], data[2] the seed, and each following group of d bytes one point
// (at most 64). A coordinate byte b maps to the integer int8(b)/4 in
// [-32, 31]: a coarse grid, so duplicates, exact distance ties and zero
// distances are common. When data[1]'s high bit is set the points are
// followed by one weight byte each, b mapping to (b%8)/2 in [0, 3.5] — zero
// weights included; an instance whose weights are all zero is rejected.
// Without the flag the weights are nil.
func decodeFuzzInstance(data []byte) (points [][]float64, weights []float64, k int, seed uint64, ok bool) {
	if len(data) < 4 {
		return nil, nil, 0, 0, false
	}
	k, d, seed := 1+int(data[0])%16, 1+int(data[1])%4, uint64(data[2])
	weighted := data[1]&0x80 != 0
	coords := data[3:]
	stride := d
	if weighted {
		stride++
	}
	n := min(len(coords)/stride, 64)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(int8(coords[i*d+j]) / 4)
		}
		points = append(points, p)
	}
	if weighted {
		var sum float64
		for _, b := range coords[n*d : n*d+n] {
			w := float64(b%8) / 2
			weights = append(weights, w)
			sum += w
		}
		if sum == 0 {
			return nil, nil, 0, 0, false
		}
	}
	return points, weights, k, seed, n > 0
}

// encodeFuzzInstance is the inverse of decodeFuzzInstance for points with
// integer coordinates in [-31, 31], at most 64 points, dimension at most 4,
// k at most 16, seed below 256 and weights (nil, or one per point) in
// {0, 0.5, …, 3.5}.
func encodeFuzzInstance(points [][]float64, weights []float64, k int, seed uint64) []byte {
	dim := byte(len(points[0]) - 1)
	if weights != nil {
		dim |= 0x80
	}
	data := []byte{byte(k - 1), dim, byte(seed)}
	for _, p := range points {
		for _, x := range p {
			data = append(data, byte(int8(4*x)))
		}
	}
	for _, w := range weights {
		data = append(data, byte(2*w))
	}
	return data
}

// fuzzWeights is a deterministic weight vector for the seed corpus: every
// value the decoder can produce, zero included.
func fuzzWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64((i*3+1)%8) / 2
	}
	return w
}

// FuzzBoundedMatchesPlain asserts the bounded kernel is bit-identical to the
// plain one on arbitrary small grid-quantised point sets, unweighted (Run
// against RunPlain) and weighted (RunWeighted against RunWeightedPlain), at
// one and three workers. The seed corpus is the degenerate shapes, each
// with and without weights; `go test -fuzz FuzzBoundedMatchesPlain`
// explores further.
func FuzzBoundedMatchesPlain(f *testing.F) {
	for _, tc := range degenerateShapes() {
		for _, weights := range [][]float64{nil, fuzzWeights(len(tc.points))} {
			for _, seed := range []uint64{0, 7} {
				data := encodeFuzzInstance(tc.points, weights, tc.k, seed)
				points, w, _, _, _ := decodeFuzzInstance(data)
				if !reflect.DeepEqual(points, tc.points) || !reflect.DeepEqual(w, weights) {
					f.Fatalf("%s: encoding does not round-trip", tc.name)
				}
				f.Add(data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		points, weights, k, seed, ok := decodeFuzzInstance(data)
		if !ok {
			return
		}
		run, runPlain := Run, RunPlain
		if weights != nil {
			run = func(p [][]float64, k int, cfg Config) (*Result, error) { return RunWeighted(p, weights, k, cfg) }
			runPlain = func(p [][]float64, k int, cfg Config) (*Result, error) { return RunWeightedPlain(p, weights, k, cfg) }
		}
		cfg := Config{Restarts: 2, MaxIter: 30, Seed: seed, Workers: 1}
		plain, err := runPlain(points, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			bounded, err := run(points, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, plain, bounded, "workers="+strconv.Itoa(workers))
		}
	})
}

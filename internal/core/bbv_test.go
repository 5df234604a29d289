package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/simpoint"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// The profile stage is stored as two artifacts: "profile" holds the slice
// checkpoints, "bbv" the basic-block vectors. A warm analysis reads only
// the first; selection loads the second on demand through BBVSlices.

// storeSink counts finished spans by name and, for store spans, by
// name/kind ("store.get/bbv").
type storeSink struct {
	mu    sync.Mutex
	spans map[string]int
}

func newStoreSink() *storeSink { return &storeSink{spans: map[string]int{}} }

func (s *storeSink) Progress(obs.ProgressEvent) {}
func (s *storeSink) Close() error               { return nil }
func (s *storeSink) SpanEnd(sd *obs.SpanData) {
	name := sd.Name
	for _, a := range sd.Attrs {
		if a.Key == "kind" {
			name += "/" + a.Value.(string)
		}
	}
	s.mu.Lock()
	s.spans[name]++
	s.mu.Unlock()
}

func (s *storeSink) count(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans[name]
}

const bbvBench = "505.mcf_r"

// storedAnalysis runs AnalyzeStored for bbvBench at small scale with the
// given selection seed (0: the default), tracing into a fresh sink.
func storedAnalysis(t *testing.T, st *store.Store, seed uint64) (*Analysis, *storeSink) {
	t.Helper()
	spec, err := workload.ByName(bbvBench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(workload.ScaleSmall)
	cfg.Seed = seed
	sink := newStoreSink()
	an, err := AnalyzeStored(obs.WithSink(tctx, sink), spec, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return an, sink
}

// sameSlices fails unless got and want are equal field for field, floats
// by bits.
func sameSlices(t *testing.T, got, want []simpoint.Slice) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Len != w.Len || !reflect.DeepEqual(g.Start, w.Start) || len(g.BBV) != len(w.BBV) {
			t.Fatalf("slice %d differs: %+v vs %+v", i, g.Start, w.Start)
		}
		for j := range w.BBV {
			if math.Float64bits(g.BBV[j]) != math.Float64bits(w.BBV[j]) {
				t.Fatalf("slice %d BBV[%d] = %v, want %v", i, j, g.BBV[j], w.BBV[j])
			}
		}
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWarmAnalysisReadsNoBBVs: a warm hit serves checkpoints without
// vectors and opens no store.get of the bbv kind; the checkpoints, total
// and selection equal the cold analysis's.
func TestWarmAnalysisReadsNoBBVs(t *testing.T) {
	cold := analyzeBench(t, bbvBench)
	st := openStore(t)
	stored, sink := storedAnalysis(t, st, 0)
	if sink.count("store.put/profile") != 1 || sink.count("store.put/bbv") != 1 {
		t.Fatalf("cold stored pass put %v, want one profile and one bbv entry", sink.spans)
	}
	sameSlices(t, stored.Slices, cold.Slices)

	warm, sink := storedAnalysis(t, st, 0)
	if n := sink.count("store.get/bbv"); n != 0 {
		t.Errorf("warm analysis opened %d store.get spans of kind bbv, want 0", n)
	}
	if sink.count("store.get/profile") != 1 || sink.count("store.get/cluster") != 1 || sink.count("profile") != 0 {
		t.Errorf("warm analysis spans %v, want one profile and one cluster get and no profile pass", sink.spans)
	}
	for i, s := range warm.Slices {
		if s.BBV != nil {
			t.Fatalf("warm slice %d carries a %d-block BBV", i, len(s.BBV))
		}
		c := cold.Slices[i]
		if s.Index != c.Index || s.Len != c.Len || !reflect.DeepEqual(s.Start, c.Start) {
			t.Fatalf("warm slice %d checkpoint differs from cold", i)
		}
	}
	if warm.TotalInstrs != cold.TotalInstrs || !reflect.DeepEqual(warm.Result, cold.Result) {
		t.Error("warm analysis differs from cold")
	}
}

// TestWarmSelectionMatchesColdConcurrently: selection and the variance
// sweep on a warm analysis equal a cold one bit for bit, with several
// goroutines asking at once while others read the checkpoints; the
// vectors are read from the store once and Slices never change. A second
// seed's analysis hits the profile and misses the cluster, so it selects
// from the stored vectors.
func TestWarmSelectionMatchesColdConcurrently(t *testing.T) {
	cold := analyzeBench(t, bbvBench)
	st := openStore(t)
	storedAnalysis(t, st, 0)
	warm, _ := storedAnalysis(t, st, 0)

	ks := []int{1, 4, 9}
	cfgs := []Config{cold.Config}
	for _, sel := range []string{"stratified", "rankedset"} {
		c := cold.Config
		c.Selector, c.Seed = sel, 7
		cfgs = append(cfgs, c)
	}
	type outcome struct {
		res []interface{}
		err error
	}
	run := func(ctx context.Context, an *Analysis) outcome {
		var o outcome
		for _, c := range cfgs {
			res, err := an.SelectWith(ctx, c)
			if err != nil {
				return outcome{err: err}
			}
			o.res = append(o.res, res)
		}
		res, err := an.Recluster(ctx, 10)
		if err != nil {
			return outcome{err: err}
		}
		sweep, err := an.VarianceSweep(ctx, ks)
		if err != nil {
			return outcome{err: err}
		}
		o.res = append(o.res, res, sweep)
		return o
	}
	want := run(tctx, cold)
	if want.err != nil {
		t.Fatal(want.err)
	}

	sink := newStoreSink()
	ctx := obs.WithSink(tctx, sink)
	const workers = 4
	got := make([]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			got[w] = run(ctx, warm)
		}(w)
		go func() {
			defer wg.Done()
			if _, err := warm.Pinballs(warm.Result, 16); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for w, o := range got {
		if o.err != nil {
			t.Fatalf("worker %d: %v", w, o.err)
		}
		if !reflect.DeepEqual(o.res, want.res) {
			t.Errorf("worker %d: warm selections differ from cold", w)
		}
	}
	if n := sink.count("store.get/bbv"); n != 1 {
		t.Errorf("%d store.get spans of kind bbv across %d workers, want 1", n, workers)
	}
	for i, s := range warm.Slices {
		if s.BBV != nil {
			t.Fatalf("BBVSlices changed warm slice %d", i)
		}
	}

	reseeded, sink := storedAnalysis(t, st, 5)
	if sink.count("store.get/bbv") != 1 || sink.count("profile") != 0 || sink.count("cluster") != 1 {
		t.Errorf("profile-hit cluster-miss analysis spans %v, want one bbv get, one cluster pass and no profile pass", sink.spans)
	}
	c := cold.Config
	c.Seed = 5
	res, err := cold.SelectWith(tctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reseeded.Result, res) {
		t.Error("selection from stored vectors differs from cold")
	}
}

// TestMissingOrCorruptBBVRecomputes: a deleted or damaged bbv entry makes
// BBVSlices re-run the profile, return the cold vectors and put both
// artifacts back, so the next analysis loads them again.
func TestMissingOrCorruptBBVRecomputes(t *testing.T) {
	cold := analyzeBench(t, bbvBench)
	for _, damage := range []struct {
		name string
		fn   func(path string) error
	}{
		{"deleted", os.Remove},
		{"corrupted", func(path string) error {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			blob[len(blob)-1] ^= 0xff
			return os.WriteFile(path, blob, 0o644)
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			st := openStore(t)
			storedAnalysis(t, st, 0)
			paths, err := filepath.Glob(filepath.Join(st.Dir(), "bbv", "*.art"))
			if err != nil || len(paths) != 1 {
				t.Fatalf("bbv entries %v (%v), want one", paths, err)
			}
			if err := damage.fn(paths[0]); err != nil {
				t.Fatal(err)
			}

			warm, _ := storedAnalysis(t, st, 0)
			sink := newStoreSink()
			slices, err := warm.BBVSlices(obs.WithSink(tctx, sink))
			if err != nil {
				t.Fatal(err)
			}
			sameSlices(t, slices, cold.Slices)
			if sink.count("profile") != 1 || sink.count("store.put/profile") != 1 || sink.count("store.put/bbv") != 1 {
				t.Errorf("recompute spans %v, want one profile pass putting both entries", sink.spans)
			}

			again, _ := storedAnalysis(t, st, 0)
			sink = newStoreSink()
			slices, err = again.BBVSlices(obs.WithSink(tctx, sink))
			if err != nil {
				t.Fatal(err)
			}
			sameSlices(t, slices, cold.Slices)
			if sink.count("store.get/bbv") != 1 || sink.count("profile") != 0 {
				t.Errorf("repopulated load spans %v, want one bbv get and no profile pass", sink.spans)
			}
		})
	}
}

package core

import (
	"reflect"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/program"
	"specsampling/internal/simpoint"
	"specsampling/internal/workload"
)

// TestProfileArtifactRoundTrip puts every suite benchmark's small-scale
// profile artifact through the store and reads it back: each slice's
// index, length and start state and the total must survive, and each
// slice's phase counters must be cut from the shared array so that an
// append to one leaves the next untouched.
func TestProfileArtifactRoundTrip(t *testing.T) {
	st := openStore(t)
	obs.ResetMetrics()
	for _, spec := range workload.Suite() {
		t.Run(spec.Name, func(t *testing.T) {
			prog, err := spec.Build(workload.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			slices, total, err := simpoint.Profile(prog, workload.ScaleSmall.SliceLen)
			if err != nil {
				t.Fatal(err)
			}
			for i := range slices {
				slices[i].BBV = nil
			}
			key := DefaultConfig(workload.ScaleSmall).ProfileKey(spec.Name)
			if err := st.Put(tctx, key, profileArtifact{Slices: slices, TotalInstrs: total}); err != nil {
				t.Fatal(err)
			}
			var got profileArtifact
			if !st.Get(tctx, key, &got) {
				t.Fatal("stored profile missed")
			}
			if got.TotalInstrs != total || len(got.Slices) != len(slices) {
				t.Fatalf("%d slices / %d instrs, want %d / %d", len(got.Slices), got.TotalInstrs, len(slices), total)
			}
			extra := program.PhaseState{BlockExecs: 1 << 40, Accesses: 1 << 40}
			for i := range got.Slices {
				_ = append(got.Slices[i].Start.Phases, extra)
			}
			for i, w := range slices {
				g := got.Slices[i]
				if g.Index != w.Index || g.Len != w.Len || g.BBV != nil || !g.Start.Equal(w.Start) {
					t.Fatalf("slice %d: %+v, want %+v", i, g, w)
				}
			}
		})
	}
	if got := obs.GetCounter("store.corrupt").Value(); got != 0 {
		t.Errorf("store.corrupt = %d, want 0", got)
	}
}

// TestPerSliceProfileEntryRecomputes: a profile entry in the per-slice form
// stored before checkpoint runs (gob's struct of slices, each in Slice's
// compact form) does not decode as a checkpoint run. Under the current
// key it is quarantined and counted corrupt, and the analysis profiles
// again and matches a cold one.
func TestPerSliceProfileEntryRecomputes(t *testing.T) {
	cold := analyzeBench(t, bbvBench)
	st := openStore(t)
	key := DefaultConfig(workload.ScaleSmall).ProfileKey(bbvBench)
	perSlice := struct {
		Slices      []simpoint.Slice
		TotalInstrs uint64
	}{cold.Slices, cold.TotalInstrs}
	if err := st.Put(tctx, key, perSlice); err != nil {
		t.Fatal(err)
	}
	obs.ResetMetrics()
	an, sink := storedAnalysis(t, st, 0)
	if got := obs.GetCounter("store.corrupt").Value(); got != 1 {
		t.Errorf("store.corrupt = %d, want 1", got)
	}
	if q := st.Quarantined(); len(q) != 1 {
		t.Errorf("quarantined = %v, want the one per-slice entry", q)
	}
	if sink.count("profile") != 1 {
		t.Errorf("spans %v, want one profile pass", sink.spans)
	}
	sameSlices(t, an.Slices, cold.Slices)
	if an.TotalInstrs != cold.TotalInstrs || !reflect.DeepEqual(an.Result, cold.Result) {
		t.Error("recomputed analysis differs from cold")
	}
	var again profileArtifact
	if !st.Get(tctx, key, &again) || len(again.Slices) != len(cold.Slices) {
		t.Error("the recomputed profile was not put back")
	}
}

// TestWarmAnalyzeAllocs pins that a warm AnalyzeStored allocates a number
// of objects that does not grow with the slice count: the same benchmark
// at two slice lengths, about 1,000 and 4,000 slices, builds the same
// program and differs only in the stored profile and selection. Decoding
// each checkpoint apart would cost at least one allocation a slice.
func TestWarmAnalyzeAllocs(t *testing.T) {
	spec, err := workload.ByName("557.xz_r")
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t)
	warmAllocs := func(sliceLen uint64) (float64, int) {
		cfg := DefaultConfig(workload.ScaleSmall)
		cfg.SliceLen = sliceLen
		cold, err := AnalyzeStored(tctx, spec, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			an, err := AnalyzeStored(tctx, spec, cfg, st)
			if err != nil || len(an.Slices) != len(cold.Slices) || an.Slices[0].BBV != nil {
				t.Fatalf("warm analysis at slice length %d: %v", sliceLen, err)
			}
		})
		return allocs, len(cold.Slices)
	}
	few, nFew := warmAllocs(workload.ScaleSmall.SliceLen)
	many, nMany := warmAllocs(workload.ScaleSmall.SliceLen / 4)
	if nFew < 900 || nMany < 4*900 {
		t.Fatalf("%d and %d slices, want about 1,000 and 4,000", nFew, nMany)
	}
	if grow := many - few; grow > float64(nMany-nFew)/10 {
		t.Errorf("warm analysis allocates %.0f objects at %d slices and %.0f at %d: %.0f more for %d more slices",
			few, nFew, many, nMany, grow, nMany-nFew)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Errorf("quarantined %v", q)
	}
	t.Logf("%.0f allocations at %d slices, %.0f at %d", few, nFew, many, nMany)
}

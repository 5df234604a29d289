package experiments

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// TestLivePointsBitIdentical checks that stored live-points change no
// number. Fig8, Fig10 and Fig12 at small scale, with several workers,
// report the same results with no store, into a cold store (whose runs
// capture the live-points) and from the warm store (whose runs restore
// them). 507.cactuBSSN_r has a simulation point at slice 0, which has no
// warm-up, and both benchmarks have points whose warm-up is clamped at the
// program start. The warm run replays no warm-up instruction and as many
// pinballs as the others.
func TestLivePointsBitIdentical(t *testing.T) {
	benches := []string{"507.cactuBSSN_r", "505.mcf_r"}
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	type reports struct {
		Fig8  *Fig8Result
		Fig10 []Fig10Row
		Fig12 *Fig12Result
	}
	var want reports
	var wantJSON []byte
	var wantReplayed int64
	for _, tc := range []struct {
		name  string
		store *store.Store
	}{{"no store", nil}, {"cold store", st}, {"warm store", st}} {
		r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: benches, Workers: 3, Store: tc.store})
		if err != nil {
			t.Fatal(err)
		}
		replayed, warmup := obs.GetCounter("pinball.replayed"), obs.GetCounter("pinball.warmup_instrs")
		replayed0, warmup0 := replayed.Value(), warmup.Value()
		var got reports
		if got.Fig8, err = r.Fig8(tctx); err != nil {
			t.Fatal(err)
		}
		if got.Fig10, err = r.Fig10(tctx); err != nil {
			t.Fatal(err)
		}
		if got.Fig12, err = r.Fig12(tctx); err != nil {
			t.Fatal(err)
		}
		nReplayed, nWarmup := replayed.Value()-replayed0, warmup.Value()-warmup0
		blob, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}

		if tc.store == nil {
			want, wantJSON, wantReplayed = got, blob, nReplayed
			checkWarmupCoverage(t, r, benches)
			if nWarmup == 0 {
				t.Fatal("the storeless run replayed no warm-up")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) || string(blob) != string(wantJSON) {
			t.Errorf("%s: reports differ from the storeless run:\n%s\nwant:\n%s", tc.name, blob, wantJSON)
		}
		if nReplayed != wantReplayed {
			t.Errorf("%s: replayed %d pinballs, the storeless run %d", tc.name, nReplayed, wantReplayed)
		}
		if tc.name == "warm store" && nWarmup != 0 {
			t.Errorf("warm store: replayed %d warm-up instructions, want 0", nWarmup)
		}
	}
}

// checkWarmupCoverage fails unless the benchmarks' selections include a
// point at slice 0 and a point whose warm-up is clamped at the program
// start, the two edges of the live-point key.
func checkWarmupCoverage(t *testing.T, r *Runner, benches []string) {
	t.Helper()
	var atZero, clamped bool
	for _, b := range benches {
		spec, err := workload.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		an, err := r.analysis(tctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range an.Result.Points {
			atZero = atZero || pt.SliceIndex == 0
			clamped = clamped || (pt.SliceIndex > 0 && pt.SliceIndex < DefaultWarmupSlices)
		}
	}
	if !atZero || !clamped {
		t.Fatalf("benchmarks %v lack a point at slice 0 (%v) or a clamped warm-up (%v)", benches, atZero, clamped)
	}
}

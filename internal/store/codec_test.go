package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/program"
	"specsampling/internal/simpoint"
	"specsampling/internal/workload"
)

// profile is the per-slice form e2ebench stores its profiles in: gob's
// struct of slices, each in simpoint.Slice's compact binary form. (core's
// profile stage stores one checkpoint run instead; its round trip is
// tested in internal/core.)
type profile struct {
	Slices      []simpoint.Slice
	TotalInstrs uint64
}

// sameSlice reports the first field where got differs from want: ints with
// ==, floats by their bits, nil-ness of the slices included.
func sameSlice(t *testing.T, got, want simpoint.Slice) {
	t.Helper()
	if got.Index != want.Index || got.Len != want.Len {
		t.Fatalf("slice %d: index/len %d/%d, want %d/%d", want.Index, got.Index, got.Len, want.Index, want.Len)
	}
	gs, ws := got.Start, want.Start
	if gs.Instrs != ws.Instrs || gs.Seg != ws.Seg || gs.SegDone != ws.SegDone || gs.BlockPos != ws.BlockPos {
		t.Fatalf("slice %d: start %+v, want %+v", want.Index, gs, ws)
	}
	if (gs.Phases == nil) != (ws.Phases == nil) || len(gs.Phases) != len(ws.Phases) {
		t.Fatalf("slice %d: %d phases (nil %v), want %d (nil %v)",
			want.Index, len(gs.Phases), gs.Phases == nil, len(ws.Phases), ws.Phases == nil)
	}
	for i := range ws.Phases {
		if gs.Phases[i] != ws.Phases[i] {
			t.Fatalf("slice %d phase %d: %+v, want %+v", want.Index, i, gs.Phases[i], ws.Phases[i])
		}
	}
	if (got.BBV == nil) != (want.BBV == nil) || len(got.BBV) != len(want.BBV) {
		t.Fatalf("slice %d: BBV of %d (nil %v), want %d (nil %v)",
			want.Index, len(got.BBV), got.BBV == nil, len(want.BBV), want.BBV == nil)
	}
	for i := range want.BBV {
		if math.Float64bits(got.BBV[i]) != math.Float64bits(want.BBV[i]) {
			t.Fatalf("slice %d BBV[%d]: %v, want %v", want.Index, i, got.BBV[i], want.BBV[i])
		}
	}
}

// TestProfileRoundTrip puts every suite benchmark's small-scale profile in
// the Slice codec through the store and reads it back field for field, plus hand-made
// slices covering what the suite never produces: a nil BBV, nil phases and
// signed-zero, negative and NaN values.
func TestProfileRoundTrip(t *testing.T) {
	type tc struct {
		name string
		prof profile
	}
	var cases []tc
	for _, spec := range workload.Suite() {
		prog, err := spec.Build(workload.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		slices, total, err := simpoint.Profile(prog, workload.ScaleSmall.SliceLen)
		if err != nil {
			t.Fatal(err)
		}
		if last := slices[len(slices)-1]; last.Len >= workload.ScaleSmall.SliceLen {
			// The short final slice is the one slice whose length is not
			// near SliceLen; every suite profile ends with one.
			t.Fatalf("%s: final slice has %d instrs, want a short one", spec.Name, last.Len)
		}
		cases = append(cases, tc{spec.Name, profile{slices, total}})
	}
	cases = append(cases, tc{"hand-made", profile{Slices: []simpoint.Slice{
		{Index: 0},
		{Index: 1, Len: 7, Start: program.State{Instrs: 9, Seg: -1, BlockPos: 3}, BBV: []float64{0, 0}},
		{Index: -2, Len: math.MaxUint64, Start: program.State{Instrs: math.MaxUint64, Seg: math.MaxInt64,
			SegDone: 1 << 40, BlockPos: math.MinInt64, Phases: []program.PhaseState{{}, {BlockExecs: 1, Accesses: math.MaxUint64}}},
			BBV: []float64{math.Copysign(0, -1), -1.5, 0, math.NaN(), math.Inf(1), 5e-324}},
	}, TotalInstrs: 16}})

	s := mustOpen(t)
	obs.ResetMetrics()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			key := Key{Kind: "profile", Bench: c.name, Parts: []string{"scale=small"}}
			if err := s.Put(ctx, key, c.prof); err != nil {
				t.Fatal(err)
			}
			var got profile
			if !s.Get(ctx, key, &got) {
				t.Fatal("stored profile missed")
			}
			if got.TotalInstrs != c.prof.TotalInstrs || len(got.Slices) != len(c.prof.Slices) {
				t.Fatalf("%d slices / %d instrs, want %d / %d",
					len(got.Slices), got.TotalInstrs, len(c.prof.Slices), c.prof.TotalInstrs)
			}
			for i := range c.prof.Slices {
				sameSlice(t, got.Slices[i], c.prof.Slices[i])
			}
		})
	}
	if got := obs.GetCounter("store.corrupt").Value(); got != 0 {
		t.Errorf("store.corrupt = %d, want 0", got)
	}
}

// legacySlice is simpoint.Slice as gob encoded it before the slice codec:
// a plain struct of the same field names.
type legacySlice struct {
	Index int
	Start program.State
	Len   uint64
	BBV   []float64
}

// TestLegacyVersionEntryMissesCleanly: a profile written under an older
// Version is in an encoding the current profile decoder rejects: under
// specart-v1 gob's struct form of each slice, under specart-v4 one
// Slice-codec call per slice where core now stores one checkpoint run.
// Under its own digest such an entry is simply never read, so it is a
// clean miss; only under the current digest would it be quarantined, which
// is why the version salt moves with the encoding.
func TestLegacyVersionEntryMissesCleanly(t *testing.T) {
	key := testKey("scale=small")
	start := program.State{Phases: []program.PhaseState{{BlockExecs: 1}}}
	v1 := struct {
		Slices      []legacySlice
		TotalInstrs uint64
	}{[]legacySlice{{Index: 0, Len: 512, Start: start, BBV: []float64{0, 3}}}, 512}
	for _, legacy := range []struct {
		version string
		payload interface{}
	}{
		{"specart-v1", v1},
		{"specart-v4", profile{[]simpoint.Slice{{Index: 0, Len: 512, Start: start}}, 512}},
	} {
		t.Run(legacy.version, func(t *testing.T) {
			if Version == legacy.version {
				t.Fatalf("store.Version still %s", legacy.version)
			}
			s := mustOpen(t)
			if err := s.Put(ctx, key, legacy.payload); err != nil {
				t.Fatal(err)
			}
			old := filepath.Join(s.Dir(), "profile", "505.mcf_r-"+key.digestAt(legacy.version)+".art")
			if err := os.Rename(s.path(key), old); err != nil {
				t.Fatal(err)
			}
			obs.ResetMetrics()
			var out profile
			if s.Get(ctx, key, &out) {
				t.Fatalf("%s entry served", legacy.version)
			}
			if got := obs.GetCounter("store.corrupt").Value(); got != 0 {
				t.Errorf("store.corrupt = %d, want 0", got)
			}
			if q := s.Quarantined(); len(q) != 0 {
				t.Errorf("quarantined = %v, want none", q)
			}
			if _, err := os.Stat(old); err != nil {
				t.Errorf("%s entry disturbed: %v", legacy.version, err)
			}
		})
	}

	// The specart-v1 bytes under the current digest are undecodable even
	// as the per-slice form. (core's TestPerSliceProfileEntryRecomputes
	// does the same for the specart-v4 form against the checkpoint run.)
	s := mustOpen(t)
	if err := s.Put(ctx, key, v1); err != nil {
		t.Fatal(err)
	}
	var out profile
	if s.Get(ctx, key, &out) {
		t.Fatal("legacy slice encoding decoded as current")
	}
	if q := s.Quarantined(); len(q) != 1 {
		t.Errorf("quarantined = %v, want the one legacy entry", q)
	}
}

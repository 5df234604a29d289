package simpoint

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"specsampling/internal/program"
	"specsampling/internal/workload"
)

// FuzzSliceUnmarshal feeds arbitrary bytes to the slice decoder. It must
// never panic, must allocate no more than the input can describe (the
// bounded dense BBV plus a few words per input byte), and every encoding it
// accepts must re-encode to exactly the same bytes.
func FuzzSliceUnmarshal(f *testing.F) {
	slices, _ := suiteProfile(f, "505.mcf_r")
	for _, s := range []Slice{slices[0], slices[len(slices)/2], slices[len(slices)-1], {},
		{Index: -1, BBV: []float64{math.Copysign(0, -1), 0, 2}}} {
		b, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})

	// budget is the most one decode may allocate: the dense BBV cap, the
	// per-byte-bounded phases and headroom for the runtime.
	budget := func(n int) uint64 { return 8*maxBBVLen + 16*uint64(n) + 4096 }
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Slice
		var err error
		if got := minAlloc(func() { s = Slice{}; err = s.UnmarshalBinary(data) }); got > budget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if len(s.Start.Phases) > len(data)/2 || len(s.BBV) > maxBBVLen {
			t.Fatalf("%d bytes decoded to %d phases and a %d-block BBV", len(data), len(s.Start.Phases), len(s.BBV))
		}
		back, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted slice fails to re-encode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip changed the encoding:\n in  %x\n out %x", data, back)
		}
	})
}

// minAlloc returns the fewest bytes any of three runs of decode allocated.
// runtime.MemStats.TotalAlloc counts every goroutine's allocations, and a
// fuzz worker runs others beside the fuzz function; they can only add to a
// run's delta, while decode's own allocation is the same each run, so the
// minimum is the one that bounds decode.
func minAlloc(decode func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		decode()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// FuzzBBVUnmarshal feeds arbitrary bytes to the BBV decoder, seeded with
// real suite vectors. It must never panic, must allocate no more than the
// bounded dense vector plus a few words per input byte, and every encoding
// it accepts must re-encode to exactly the same bytes.
func FuzzBBVUnmarshal(f *testing.F) {
	seeds := []BBV{nil, {math.Copysign(0, -1), 0, 2}, make(BBV, 3)}
	for _, name := range []string{"505.mcf_r", "541.leela_r"} {
		slices, _ := suiteProfile(f, name)
		for _, s := range []Slice{slices[0], slices[len(slices)/2], slices[len(slices)-1]} {
			seeds = append(seeds, s.BBV)
		}
	}
	for _, v := range seeds {
		b, err := v.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})

	budget := func(n int) uint64 { return 8*maxBBVLen + 16*uint64(n) + 4096 }
	f.Fuzz(func(t *testing.T, data []byte) {
		var v BBV
		var err error
		if got := minAlloc(func() { v = nil; err = v.UnmarshalBinary(data) }); got > budget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if len(v) > maxBBVLen {
			t.Fatalf("%d bytes decoded to a %d-block BBV", len(data), len(v))
		}
		back, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted BBV fails to re-encode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip changed the encoding:\n in  %x\n out %x", data, back)
		}
	})
}

// TestSliceCodecRejects pins the decoder's refusals: each input is a
// well-formed encoding with one defect.
func TestSliceCodecRejects(t *testing.T) {
	good, err := Slice{Index: 3, Len: 9, Start: program.State{Phases: []program.PhaseState{{BlockExecs: 2}}},
		BBV: []float64{0, 1, 0, 2}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// good is: index 3 (zig-zag 6), len 9, instrs 0, seg 0, segdone 0,
	// blockpos 0, 1 phase {2, 0}, dim 4, nnz 2, gap 1 + bits(1), gap 1 + bits(2).
	var s Slice
	if err := s.UnmarshalBinary(good); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	head := []byte{6, 9, 0, 0, 0, 0, 1, 2, 0}
	if !bytes.Equal(good[:len(head)], head) {
		t.Fatalf("encoding head %x, want %x", good[:len(head)], head)
	}
	entry := func(gap byte, v float64) []byte {
		b := []byte{gap}
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"truncated", good[:len(good)-1]},
		{"trailing byte", cat(good, []byte{0})},
		{"overlong varint", cat([]byte{0x86, 0x00}, good[1:])},
		{"phase count beyond input", cat(head[:6], []byte{0x7f})},
		{"BBV beyond the cap", cat(head, []byte{0x81, 0x80, 0x04, 0})},
		{"more non-zeros than blocks", cat(head, []byte{1, 2}, entry(0, 1), entry(0, 2))},
		{"index past the end", cat(head, []byte{2, 1}, entry(2, 1))},
		{"stored zero", cat(head, []byte{4, 1}, entry(0, 0))},
	} {
		if err := s.UnmarshalBinary(tc.in); err == nil {
			t.Errorf("%s: accepted %x", tc.name, tc.in)
		}
	}
	if _, err := (Slice{BBV: make([]float64, maxBBVLen+1)}).MarshalBinary(); err == nil {
		t.Error("BBV beyond the cap encoded")
	}
}

// suiteProfile profiles the named suite benchmark at small scale.
func suiteProfile(tb testing.TB, name string) ([]Slice, uint64) {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := spec.Build(workload.ScaleSmall)
	if err != nil {
		tb.Fatal(err)
	}
	slices, total, err := Profile(prog, workload.ScaleSmall.SliceLen)
	if err != nil {
		tb.Fatal(err)
	}
	return slices, total
}

// FuzzCheckpointRunUnmarshal feeds arbitrary bytes to the checkpoint run
// decoder, seeded with two suite profiles. It must never panic, must
// allocate no more than the input can describe (per slice its struct and
// at most maxPhases counters, and each slice takes checkpointMin bytes),
// and every run it accepts must re-encode to exactly the same bytes.
func FuzzCheckpointRunUnmarshal(f *testing.F) {
	for _, name := range []string{"505.mcf_r", "520.omnetpp_r"} {
		slices, total := suiteProfile(f, name)
		for i := range slices {
			slices[i].BBV = nil
		}
		for _, run := range [][]Slice{slices, slices[:3], nil} {
			b, err := MarshalCheckpoints(run, total)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{0x80, 0x00})

	perSlice := uint64(unsafe.Sizeof(Slice{}) + maxPhases*unsafe.Sizeof(program.PhaseState{}))
	budget := func(n int) uint64 { return perSlice*uint64(n)/checkpointMin + 4096 }
	f.Fuzz(func(t *testing.T, data []byte) {
		var slices []Slice
		var total uint64
		var err error
		if got := minAlloc(func() { slices, total, err = UnmarshalCheckpoints(data) }); got > budget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		back, err := MarshalCheckpoints(slices, total)
		if err != nil {
			t.Fatalf("accepted run fails to re-encode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip changed the encoding:\n in  %x\n out %x", data, back)
		}
	})
}

// TestCheckpointRunRejects pins the checkpoint run's refusals: each input
// is a well-formed run with one defect, and each refused slice set is one
// the decoder could not give back.
func TestCheckpointRunRejects(t *testing.T) {
	type phases = []program.PhaseState
	run := []Slice{
		{Index: 0, Len: 5, Start: program.State{Phases: phases{{}, {}}}},
		{Index: 1, Len: 4, Start: program.State{Instrs: 5, SegDone: 5, BlockPos: 1, Phases: phases{{}, {BlockExecs: 2, Accesses: 1}}}},
	}
	good, err := MarshalCheckpoints(run, 9)
	if err != nil {
		t.Fatal(err)
	}
	// good is: total 9, 2 phases, 2 slices; slice 0: len 5, four zero
	// differences, no change; slice 1: len 4, instrs and segdone as
	// implied, blockpos +1 (zig-zag 2), one change: gap 1, +2, +1.
	want := []byte{9, 2, 2, 5, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 1, 1, 4, 2}
	if !bytes.Equal(good, want) {
		t.Fatalf("encoding %x, want %x", good, want)
	}
	got, total, err := UnmarshalCheckpoints(good)
	if err != nil || total != 9 || len(got) != 2 {
		t.Fatalf("valid run: %d slices, total %d, %v", len(got), total, err)
	}
	for i := range run {
		if got[i].Index != i || got[i].Len != run[i].Len || !got[i].Start.Equal(run[i].Start) {
			t.Fatalf("slice %d decoded as %+v, want %+v", i, got[i], run[i])
		}
	}

	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	slice1 := want[9:13]
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"truncated", good[:len(good)-1]},
		{"trailing bytes", cat(good, []byte{0})},
		{"non-minimal varint", cat([]byte{0x89, 0x00}, good[1:])},
		{"changed phase with zero deltas", cat(want[:13], []byte{1, 1, 0, 0})},
		{"phase index out of range", cat(want[:13], []byte{1, 2, 4, 2})},
		{"second change out of range", cat(want[:13], []byte{2, 1, 4, 2, 0, 4, 2})},
		{"phase count over the cap", cat([]byte{9, 0x81, 0x04}, want[2:])},
		{"slice count beyond the bytes left", cat([]byte{9, 2, 3}, want[3:])},
		{"phases in an empty run", []byte{9, 2, 0}},
		{"changes without phases", cat([]byte{9, 0, 2}, want[3:8], slice1, []byte{1, 0, 2, 2})},
	} {
		if _, _, err := UnmarshalCheckpoints(tc.in); err == nil {
			t.Errorf("%s: accepted %x", tc.name, tc.in)
		}
	}

	for _, tc := range []struct {
		name string
		mod  func(s []Slice)
	}{
		{"a BBV", func(s []Slice) { s[1].BBV = []float64{1} }},
		{"an empty BBV", func(s []Slice) { s[1].BBV = []float64{} }},
		{"an index off its position", func(s []Slice) { s[1].Index = 2 }},
		{"a phase count that differs", func(s []Slice) { s[1].Start.Phases = s[1].Start.Phases[:1] }},
	} {
		s := append([]Slice(nil), run...)
		tc.mod(s)
		if _, err := MarshalCheckpoints(s, 9); err == nil {
			t.Errorf("encoded a slice with %s", tc.name)
		}
	}
	wide := []Slice{{Start: program.State{Phases: make([]program.PhaseState, maxPhases+1)}}}
	if _, err := MarshalCheckpoints(wide, 0); err == nil {
		t.Error("encoded a run over the phase cap")
	}
}

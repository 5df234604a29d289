package simpoint

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"specsampling/internal/program"
	"specsampling/internal/workload"
)

// FuzzSliceUnmarshal feeds arbitrary bytes to the slice decoder. It must
// never panic, must allocate no more than the input can describe (the
// bounded dense BBV plus a few words per input byte), and every encoding it
// accepts must re-encode to exactly the same bytes.
func FuzzSliceUnmarshal(f *testing.F) {
	spec, err := workload.ByName("505.mcf_r")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := spec.Build(workload.ScaleSmall)
	if err != nil {
		f.Fatal(err)
	}
	slices, _, err := Profile(prog, workload.ScaleSmall.SliceLen)
	if err != nil {
		f.Fatal(err)
	}
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
		spec, err := workload.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := spec.Build(workload.ScaleSmall)
		if err != nil {
			f.Fatal(err)
		}
		slices, _, err := Profile(prog, workload.ScaleSmall.SliceLen)
		if err != nil {
			f.Fatal(err)
		}
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

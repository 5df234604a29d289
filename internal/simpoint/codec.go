package simpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"specsampling/internal/program"
)

// The compact binary forms of a Slice, of a BBV and of a checkpoint run.
// gob uses MarshalBinary and UnmarshalBinary in place of its reflective
// encoding, so the store's bbv artifact carries every vector in the BBV
// form, core's profile artifact all of a profile's checkpoints as one
// checkpoint run, and e2ebench's profile entries every slice in the Slice
// form. A BBV is a count per static basic block and a slice
// touches few of them (about 5 % non-zero across the suite), so the vector
// is written sparse:
//
//	uvarint len(BBV), uvarint non-zero count, then per non-zero entry
//	        uvarint gap to the previous entry's index (index - prev - 1)
//	        and the value's float64 bits, 8 bytes little-endian
//
// A Slice is its fields followed by its BBV in that form:
//
//	varint  Index
//	uvarint Len
//	uvarint Start.Instrs, varint Start.Seg, uvarint Start.SegDone,
//	varint  Start.BlockPos
//	uvarint len(Start.Phases), then per phase uvarint BlockExecs, Accesses
//	the sparse BBV
//
// "Non-zero" means non-zero bits, so -0 survives. Both forms are
// canonical: the decoder accepts only minimal varints, strictly increasing
// indices, non-zero stored values and no trailing bytes, so every accepted
// encoding re-encodes to the same bytes. Empty Phases and BBVs decode as
// nil, as they do from gob's struct encoding.
//
// A checkpoint run is what Profile returns without the BBVs, in one form:
// every slice's length and start state in execution order, and the
// whole-run instruction count. Consecutive checkpoints differ little (the
// instruction count advances by the previous slice's length, and about one
// phase's counters change per slice), so each is written as the difference
// from what the previous one implies; the first follows the zero state of
// a zero-length slice:
//
//	uvarint total instructions
//	uvarint phase count P, at most maxPhases
//	uvarint slice count
//	per slice:
//	        uvarint Len
//	        varint  Start.Instrs - (previous Start.Instrs + previous Len)
//	        varint  Start.Seg - previous Start.Seg
//	        varint  Start.SegDone - implied, where implied is previous
//	                SegDone + previous Len in the same segment and 0 in
//	                another
//	        varint  Start.BlockPos - previous Start.BlockPos
//	        uvarint count of phases whose counters changed, then per such
//	                phase uvarint gap to the previous one's index and
//	                varint BlockExecs and Accesses deltas
//
// Differences wrap, so every state is representable. The run is canonical
// too: a listed phase must change, a run of no slices has no phases, and
// Index is the slice's position, so the encoder refuses a slice whose
// Index is not its position or that carries a BBV.

// BBV is one slice's basic-block vector as the store holds it apart from
// the slice's checkpoint: a []float64 with the sparse binary form above.
type BBV []float64

// maxBBVLen bounds a decoded BBV's dimension. The dense vector is the one
// allocation the input does not pay for byte by byte, so it is capped far
// above any program's static block count (the suite peaks near 300).
const maxBBVLen = 1 << 16

// maxPhases bounds a checkpoint run's phase count. Every decoded slice
// holds that many phase counters however few bytes it takes, so the cap
// bounds the decode's allocation per input byte; it is far above any
// program's phase count (the suite peaks at 28).
const maxPhases = 1 << 8

// checkpointMin is the fewest bytes one slice of a checkpoint run takes:
// its length, four start-state differences and a changed-phase count.
const checkpointMin = 6

// entryMin is the fewest bytes one sparse BBV entry takes: a one-byte gap
// and the eight value bytes.
const entryMin = 1 + 8

// errCodec is the decoder's one failure: the input is not a canonical
// slice, BBV or checkpoint run encoding.
var errCodec = errors.New("simpoint: malformed slice, BBV or checkpoint encoding")

// MarshalBinary encodes s in the compact form described above.
func (s Slice) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 6*binary.MaxVarintLen64+2*binary.MaxVarintLen64*len(s.Start.Phases))
	b = binary.AppendVarint(b, int64(s.Index))
	b = binary.AppendUvarint(b, s.Len)
	b = binary.AppendUvarint(b, s.Start.Instrs)
	b = binary.AppendVarint(b, int64(s.Start.Seg))
	b = binary.AppendUvarint(b, s.Start.SegDone)
	b = binary.AppendVarint(b, int64(s.Start.BlockPos))
	b = binary.AppendUvarint(b, uint64(len(s.Start.Phases)))
	for _, ps := range s.Start.Phases {
		b = binary.AppendUvarint(b, ps.BlockExecs)
		b = binary.AppendUvarint(b, ps.Accesses)
	}
	b, err := appendBBV(b, s.BBV)
	if err != nil {
		return nil, fmt.Errorf("simpoint: slice %d: %w", s.Index, err)
	}
	return b, nil
}

// UnmarshalBinary decodes the compact form into s. Every count is checked
// against the bytes left before anything is allocated, so truncated,
// oversized or trailing input fails with no allocation beyond what the
// input describes.
func (s *Slice) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	var out Slice
	out.Index = d.int()
	out.Len = d.uvarint()
	out.Start.Instrs = d.uvarint()
	out.Start.Seg = d.int()
	out.Start.SegDone = d.uvarint()
	out.Start.BlockPos = d.int()
	// Each phase takes at least two bytes.
	if n := d.count(uint64(len(d.b)) / 2); n > 0 {
		out.Start.Phases = make([]program.PhaseState, n)
		for i := range out.Start.Phases {
			out.Start.Phases[i] = program.PhaseState{BlockExecs: d.uvarint(), Accesses: d.uvarint()}
		}
	}
	out.BBV = d.bbv()
	if err := d.end(); err != nil {
		return err
	}
	*s = out
	return nil
}

// MarshalCheckpoints encodes slices and the whole-run instruction count
// total as a checkpoint run. It fails if a slice carries a BBV, if its
// Index is not its position, or if the slices' phase counts differ or
// exceed maxPhases.
func MarshalCheckpoints(slices []Slice, total uint64) ([]byte, error) {
	phases := 0
	if len(slices) > 0 {
		phases = len(slices[0].Start.Phases)
	}
	if phases > maxPhases {
		return nil, fmt.Errorf("simpoint: %d phases exceed %d", phases, maxPhases)
	}
	b := make([]byte, 0, 3*binary.MaxVarintLen64+len(slices)*(checkpointMin+8))
	b = binary.AppendUvarint(b, total)
	b = binary.AppendUvarint(b, uint64(phases))
	b = binary.AppendUvarint(b, uint64(len(slices)))
	prev := Slice{Start: program.State{Phases: make([]program.PhaseState, phases)}}
	for i, s := range slices {
		switch {
		case s.BBV != nil:
			return nil, fmt.Errorf("simpoint: checkpoint %d carries a BBV", i)
		case s.Index != i:
			return nil, fmt.Errorf("simpoint: checkpoint %d has index %d", i, s.Index)
		case len(s.Start.Phases) != phases:
			return nil, fmt.Errorf("simpoint: checkpoint %d has %d phases, want %d", i, len(s.Start.Phases), phases)
		}
		st, ps := s.Start, prev.Start
		b = binary.AppendUvarint(b, s.Len)
		b = binary.AppendVarint(b, int64(st.Instrs-(ps.Instrs+prev.Len)))
		b = binary.AppendVarint(b, int64(st.Seg)-int64(ps.Seg))
		b = binary.AppendVarint(b, int64(st.SegDone-impliedSegDone(prev, st.Seg)))
		b = binary.AppendVarint(b, int64(st.BlockPos)-int64(ps.BlockPos))
		changed := 0
		for j := range st.Phases {
			if st.Phases[j] != ps.Phases[j] {
				changed++
			}
		}
		b = binary.AppendUvarint(b, uint64(changed))
		last := -1
		for j, cur := range st.Phases {
			if old := ps.Phases[j]; cur != old {
				b = binary.AppendUvarint(b, uint64(j-last-1))
				b = binary.AppendVarint(b, int64(cur.BlockExecs-old.BlockExecs))
				b = binary.AppendVarint(b, int64(cur.Accesses-old.Accesses))
				last = j
			}
		}
		prev = s
	}
	return b, nil
}

// UnmarshalCheckpoints decodes a checkpoint run into its slices, with nil
// BBVs, and the whole-run instruction count. The whole run is checked as
// it is read: minimal varints, every count against the bytes left before
// anything is allocated, the phase count against maxPhases, and no
// trailing bytes. It allocates twice: the slices, and one array that holds
// every slice's phase counters. Each slice's Phases is cut from that array
// with its capacity equal to its length, so appending to one never writes
// into the next.
func UnmarshalCheckpoints(data []byte) ([]Slice, uint64, error) {
	d := decoder{b: data}
	total := d.uvarint()
	phases := d.count(maxPhases)
	n := d.count(uint64(len(d.b)) / checkpointMin)
	if n == 0 && phases != 0 {
		d.fail()
	}
	if d.err != nil || n == 0 {
		if err := d.end(); err != nil {
			return nil, 0, err
		}
		return nil, total, nil
	}
	out := make([]Slice, n)
	var counters []program.PhaseState
	if phases > 0 {
		counters = make([]program.PhaseState, n*phases)
	}
	var prev Slice
	for i := range out {
		s := &out[i]
		s.Index = i
		s.Len = d.uvarint()
		ps := prev.Start
		s.Start.Instrs = ps.Instrs + prev.Len + uint64(d.varint())
		s.Start.Seg = d.add(ps.Seg)
		s.Start.SegDone = impliedSegDone(prev, s.Start.Seg) + uint64(d.varint())
		s.Start.BlockPos = d.add(ps.BlockPos)
		if phases > 0 {
			ph := counters[i*phases : (i+1)*phases : (i+1)*phases]
			copy(ph, ps.Phases)
			s.Start.Phases = ph
		}
		changed := d.count(min(uint64(phases), uint64(len(d.b))/3))
		last := -1
		for j := 0; j < changed && d.err == nil; j++ {
			gap := d.uvarint()
			if gap >= uint64(phases-last-1) {
				d.fail()
				break
			}
			last += 1 + int(gap)
			execs, accesses := d.varint(), d.varint()
			if execs == 0 && accesses == 0 {
				d.fail()
			}
			p := &s.Start.Phases[last]
			p.BlockExecs += uint64(execs)
			p.Accesses += uint64(accesses)
		}
		if d.err != nil {
			break
		}
		prev = *s
	}
	if err := d.end(); err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

// impliedSegDone is the SegDone a checkpoint in segment seg has if it
// directly follows prev: prev's plus prev's length in the same segment,
// and 0 in another.
func impliedSegDone(prev Slice, seg int) uint64 {
	if seg != prev.Start.Seg {
		return 0
	}
	return prev.Start.SegDone + prev.Len
}

// MarshalBinary encodes v in the sparse form described above.
func (v BBV) MarshalBinary() ([]byte, error) { return appendBBV(nil, v) }

// UnmarshalBinary decodes the sparse form into v, with the same checks as
// Slice.UnmarshalBinary.
func (v *BBV) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	out := d.bbv()
	if err := d.end(); err != nil {
		return err
	}
	*v = out
	return nil
}

// appendBBV appends v's sparse form to b.
func appendBBV(b []byte, v []float64) ([]byte, error) {
	if len(v) > maxBBVLen {
		return nil, fmt.Errorf("BBV of %d blocks exceeds %d", len(v), maxBBVLen)
	}
	nnz := 0
	for _, x := range v {
		if math.Float64bits(x) != 0 {
			nnz++
		}
	}
	b = slices.Grow(b, 2*binary.MaxVarintLen64+nnz*(entryMin+2))
	b = binary.AppendUvarint(b, uint64(len(v)))
	b = binary.AppendUvarint(b, uint64(nnz))
	prev := -1
	for i, x := range v {
		if u := math.Float64bits(x); u != 0 {
			b = binary.AppendUvarint(b, uint64(i-prev-1))
			b = binary.LittleEndian.AppendUint64(b, u)
			prev = i
		}
	}
	return b, nil
}

// decoder reads the compact forms; the first failure sticks and every
// later read returns zero.
type decoder struct {
	b   []byte
	err error
}

// bbv reads a sparse BBV. The non-zero count is checked against the bytes
// left, and the dense dimension against maxBBVLen, before the vector is
// allocated.
func (d *decoder) bbv() []float64 {
	dim := d.count(maxBBVLen)
	nnz := d.count(uint64(len(d.b)) / entryMin)
	if nnz > dim {
		d.fail()
	}
	if d.err != nil || dim == 0 {
		return nil
	}
	v := make([]float64, dim)
	prev := -1
	for j := 0; j < nnz && d.err == nil; j++ {
		gap := d.uvarint()
		if gap >= uint64(dim-prev-1) {
			d.fail()
			break
		}
		i := prev + 1 + int(gap)
		u := d.uint64()
		if u == 0 {
			d.fail()
		}
		v[i] = math.Float64frombits(u)
		prev = i
	}
	return v
}

// end fails on trailing bytes and returns the decode's outcome.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCodec
	}
	d.b = nil
}

// uvarint reads a minimally encoded unsigned varint.
func (d *decoder) uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 { // one byte: most gaps and counts
		x := uint64(d.b[0])
		d.b = d.b[1:]
		return x
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 || n != (bits.Len64(x|1)+6)/7 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

// varint reads a minimally encoded zig-zag varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// int reads a zig-zag varint that must fit an int.
func (d *decoder) int() int { return d.add(0) }

// add reads a zig-zag varint difference from base; the sum wraps and must
// fit an int.
func (d *decoder) add(base int) int {
	x := int64(base) + d.varint()
	if int64(int(x)) != x {
		d.fail()
		return 0
	}
	return int(x)
}

// count reads a length that must not exceed limit.
func (d *decoder) count(limit uint64) int {
	n := d.uvarint()
	if n > limit {
		d.fail()
		return 0
	}
	return int(n)
}

// uint64 reads eight little-endian bytes.
func (d *decoder) uint64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	u := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return u
}

package simpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"specsampling/internal/program"
)

// The compact binary form of a Slice. gob uses MarshalBinary and
// UnmarshalBinary in place of its reflective struct encoding, so the
// store's profile artifact carries every slice in this form. A BBV is a
// count per static basic block and a slice touches few of them (about 5 %
// non-zero across the suite), so the vector is written sparse:
//
//	varint  Index
//	uvarint Len
//	uvarint Start.Instrs, varint Start.Seg, uvarint Start.SegDone,
//	varint  Start.BlockPos
//	uvarint len(Start.Phases), then per phase uvarint BlockExecs, Accesses
//	uvarint len(BBV), uvarint non-zero count, then per non-zero entry
//	        uvarint gap to the previous entry's index (index - prev - 1)
//	        and the value's float64 bits, 8 bytes little-endian
//
// "Non-zero" means non-zero bits, so -0 survives. The form is canonical:
// the decoder accepts only minimal varints, strictly increasing indices,
// non-zero stored values and no trailing bytes, so every accepted encoding
// re-encodes to the same bytes. Empty Phases and BBV decode as nil, as
// they do from gob's struct encoding.

// maxBBVLen bounds a decoded BBV's dimension. The dense vector is the one
// allocation the input does not pay for byte by byte, so it is capped far
// above any program's static block count (the suite peaks near 300).
const maxBBVLen = 1 << 16

// entryMin is the fewest bytes one sparse BBV entry takes: a one-byte gap
// and the eight value bytes.
const entryMin = 1 + 8

// errSliceCodec is the decoder's one failure: the input is not a canonical
// slice encoding.
var errSliceCodec = errors.New("simpoint: malformed slice encoding")

// MarshalBinary encodes s in the compact form described above.
func (s Slice) MarshalBinary() ([]byte, error) {
	if len(s.BBV) > maxBBVLen {
		return nil, fmt.Errorf("simpoint: slice %d: BBV of %d blocks exceeds %d", s.Index, len(s.BBV), maxBBVLen)
	}
	nnz := 0
	for _, v := range s.BBV {
		if math.Float64bits(v) != 0 {
			nnz++
		}
	}
	b := make([]byte, 0, 6*binary.MaxVarintLen64+2*binary.MaxVarintLen64*len(s.Start.Phases)+nnz*(entryMin+2))
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
	b = binary.AppendUvarint(b, uint64(len(s.BBV)))
	b = binary.AppendUvarint(b, uint64(nnz))
	prev := -1
	for i, v := range s.BBV {
		if u := math.Float64bits(v); u != 0 {
			b = binary.AppendUvarint(b, uint64(i-prev-1))
			b = binary.LittleEndian.AppendUint64(b, u)
			prev = i
		}
	}
	return b, nil
}

// UnmarshalBinary decodes the compact form into s. Every count is checked
// against the bytes left before anything is allocated, so truncated,
// oversized or trailing input fails with no allocation beyond what the
// input describes.
func (s *Slice) UnmarshalBinary(data []byte) error {
	d := sliceDecoder{b: data}
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
	dim := d.count(maxBBVLen)
	nnz := d.count(uint64(len(d.b)) / entryMin)
	if nnz > dim {
		d.fail()
	}
	if d.err == nil && dim > 0 {
		out.BBV = make([]float64, dim)
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
			out.BBV[i] = math.Float64frombits(u)
			prev = i
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	if d.err != nil {
		return d.err
	}
	*s = out
	return nil
}

// sliceDecoder reads the compact form; the first failure sticks and every
// later read returns zero.
type sliceDecoder struct {
	b   []byte
	err error
}

func (d *sliceDecoder) fail() {
	if d.err == nil {
		d.err = errSliceCodec
	}
	d.b = nil
}

// uvarint reads a minimally encoded unsigned varint.
func (d *sliceDecoder) uvarint() uint64 {
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

// int reads a zig-zag varint that must fit an int.
func (d *sliceDecoder) int() int {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		d.fail()
		return 0
	}
	return int(x)
}

// count reads a length that must not exceed limit.
func (d *sliceDecoder) count(limit uint64) int {
	n := d.uvarint()
	if n > limit {
		d.fail()
		return 0
	}
	return int(n)
}

// uint64 reads eight little-endian bytes.
func (d *sliceDecoder) uint64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	u := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return u
}

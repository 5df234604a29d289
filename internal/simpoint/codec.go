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

// The compact binary forms of a Slice and of a BBV. gob uses MarshalBinary
// and UnmarshalBinary in place of its reflective encoding, so the store's
// profile artifact carries every slice, and its bbv artifact every vector,
// in these forms. A BBV is a count per static basic block and a slice
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

// BBV is one slice's basic-block vector as the store holds it apart from
// the slice's checkpoint: a []float64 with the sparse binary form above.
type BBV []float64

// maxBBVLen bounds a decoded BBV's dimension. The dense vector is the one
// allocation the input does not pay for byte by byte, so it is capped far
// above any program's static block count (the suite peaks near 300).
const maxBBVLen = 1 << 16

// entryMin is the fewest bytes one sparse BBV entry takes: a one-byte gap
// and the eight value bytes.
const entryMin = 1 + 8

// errCodec is the decoder's one failure: the input is not a canonical
// slice or BBV encoding.
var errCodec = errors.New("simpoint: malformed slice or BBV encoding")

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

// int reads a zig-zag varint that must fit an int.
func (d *decoder) int() int {
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

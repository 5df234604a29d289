// Package pinball implements the reproduction's PinPlay analogue: portable,
// self-contained checkpoints of a program execution ("pinballs") that can be
// replayed deterministically, in isolation and in parallel, with arbitrary
// Pintools attached.
//
// A pinball captures the executor's complete architectural state (a
// program.State — a handful of counters, because all dynamic behaviour is a
// pure function of them) plus the region length to execute. A Whole Pinball
// covers an entire benchmark; a Regional Pinball covers one simulation
// point and carries its weight. Regional pinballs may also carry a warm-up
// checkpoint taken a fixed distance before the region, implementing the
// paper's cache-warming mitigation (Section IV-D).
package pinball

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"specsampling/internal/obs"
	"specsampling/internal/program"
)

// loggedCounter counts pinballs serialised by Write (the logger side of the
// PinPlay analogue); the replayer side is counted in ReplayAll.
var loggedCounter = obs.GetCounter("pinball.logged")

// Kind distinguishes whole-execution checkpoints from regional ones.
type Kind uint8

// Pinball kinds.
const (
	Whole Kind = iota
	Regional
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Whole:
		return "whole"
	case Regional:
		return "regional"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Pinball is one checkpoint. The zero value is not valid; construct whole
// pinballs with NewWhole and regional ones with NewRegional.
type Pinball struct {
	// Benchmark is the workload's name.
	Benchmark string
	// Scale records the scale the pinball was captured at ("full", ...).
	Scale string
	// Kind is Whole or Regional.
	Kind Kind
	// Region is the simulation-point index for regional pinballs, -1 for
	// whole ones.
	Region int
	// Start is the captured execution state at the region's first
	// instruction.
	Start program.State
	// Len is the exact number of instructions to execute on replay.
	Len uint64
	// Weight is the simulation point's weight (1 for whole pinballs).
	Weight float64
	// HasWarmup indicates Warmup/WarmupLen are valid.
	HasWarmup bool
	// Warmup is the state WarmupLen instructions before Start, used to warm
	// microarchitectural state before measurement begins.
	Warmup    program.State
	WarmupLen uint64
}

// NewWhole builds the whole-execution pinball of a finalized program: its
// start state is the program entry and its length the measured whole-run
// instruction count, which exceeds the nominal Program.TotalInstrs by the
// block overshoot at each segment end.
func NewWhole(p *program.Program, scale string, length uint64) *Pinball {
	exec := program.NewExecutor(p)
	return &Pinball{
		Benchmark: p.Name,
		Scale:     scale,
		Kind:      Whole,
		Region:    -1,
		Start:     exec.State(),
		Len:       length,
		Weight:    1,
	}
}

// NewRegional builds a regional pinball for a simulation point.
func NewRegional(benchmark, scale string, region int, start program.State, length uint64, weight float64) *Pinball {
	return &Pinball{
		Benchmark: benchmark,
		Scale:     scale,
		Kind:      Regional,
		Region:    region,
		Start:     start,
		Len:       length,
		Weight:    weight,
	}
}

// WithWarmup attaches a warm-up checkpoint taken warmupLen instructions
// before the region start.
func (pb *Pinball) WithWarmup(warmup program.State, warmupLen uint64) *Pinball {
	pb.HasWarmup = warmupLen > 0
	pb.Warmup = warmup
	pb.WarmupLen = warmupLen
	return pb
}

// Validate reports structural problems.
func (pb *Pinball) Validate() error {
	if pb.Benchmark == "" {
		return fmt.Errorf("pinball: empty benchmark name")
	}
	if pb.Len == 0 {
		return fmt.Errorf("pinball %s: zero length", pb.Benchmark)
	}
	if pb.Kind == Regional && pb.Region < 0 {
		return fmt.Errorf("pinball %s: regional pinball without region index", pb.Benchmark)
	}
	if pb.Weight < 0 || pb.Weight > 1.0000001 {
		return fmt.Errorf("pinball %s: weight %v out of [0,1]", pb.Benchmark, pb.Weight)
	}
	if pb.HasWarmup && pb.Warmup.Instrs+pb.WarmupLen != pb.Start.Instrs {
		return fmt.Errorf("pinball %s region %d: warm-up state at %d + %d does not reach region start %d",
			pb.Benchmark, pb.Region, pb.Warmup.Instrs, pb.WarmupLen, pb.Start.Instrs)
	}
	return nil
}

// Binary format:
//
//	magic "PBAL" | version u16 | payload | crc32(payload) u32
//
// The payload is little-endian fixed-width fields with length-prefixed
// strings. The CRC detects truncation and corruption.
const (
	magic   = "PBAL"
	version = uint16(1)
)

// Write serialises the pinball.
func (pb *Pinball) Write(w io.Writer) error {
	if err := pb.Validate(); err != nil {
		return err
	}
	var payload []byte
	payload = appendString(payload, pb.Benchmark)
	payload = appendString(payload, pb.Scale)
	payload = append(payload, byte(pb.Kind))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(int64(pb.Region)))
	payload = appendState(payload, pb.Start)
	payload = binary.LittleEndian.AppendUint64(payload, pb.Len)
	payload = binary.LittleEndian.AppendUint64(payload, floatBits(pb.Weight))
	if pb.HasWarmup {
		payload = append(payload, 1)
		payload = appendState(payload, pb.Warmup)
		payload = binary.LittleEndian.AppendUint64(payload, pb.WarmupLen)
	} else {
		payload = append(payload, 0)
	}

	if _, err := w.Write([]byte(magic)); err != nil {
		return fmt.Errorf("pinball: write magic: %w", err)
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], version)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pinball: write version: %w", err)
	}
	var size [8]byte
	binary.LittleEndian.PutUint64(size[:], uint64(len(payload)))
	if _, err := w.Write(size[:]); err != nil {
		return fmt.Errorf("pinball: write size: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("pinball: write payload: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("pinball: write checksum: %w", err)
	}
	loggedCounter.Add(1)
	return nil
}

// Read deserialises a pinball.
func Read(r io.Reader) (*Pinball, error) {
	head := make([]byte, len(magic)+2+8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("pinball: read header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("pinball: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != version {
		return nil, fmt.Errorf("pinball: unsupported version %d", v)
	}
	size := binary.LittleEndian.Uint64(head[6:14])
	const maxPayload = 64 << 20
	if size > maxPayload {
		return nil, fmt.Errorf("pinball: payload size %d exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("pinball: read payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("pinball: read checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, fmt.Errorf("pinball: checksum mismatch")
	}

	d := &decoder{buf: payload}
	pb := &Pinball{}
	pb.Benchmark = d.string()
	pb.Scale = d.string()
	pb.Kind = Kind(d.byte())
	pb.Region = int(int64(d.uint64()))
	pb.Start = d.state()
	pb.Len = d.uint64()
	pb.Weight = bitsFloat(d.uint64())
	if d.byte() == 1 {
		pb.HasWarmup = true
		pb.Warmup = d.state()
		pb.WarmupLen = d.uint64()
	}
	if d.err != nil {
		return nil, fmt.Errorf("pinball: decode: %w", d.err)
	}
	if err := pb.Validate(); err != nil {
		return nil, err
	}
	return pb, nil
}

// Save writes the pinball to a file.
func (pb *Pinball) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pinball: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := pb.Write(w); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("pinball: flush %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a pinball from a file.
func Load(path string) (*Pinball, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pinball: %w", err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// --- encoding helpers ---

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendState(b []byte, s program.State) []byte {
	b = binary.LittleEndian.AppendUint64(b, s.Instrs)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.Seg)))
	b = binary.LittleEndian.AppendUint64(b, s.SegDone)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.BlockPos)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Phases)))
	for _, ps := range s.Phases {
		b = binary.LittleEndian.AppendUint64(b, ps.BlockExecs)
		b = binary.LittleEndian.AppendUint64(b, ps.Accesses)
	}
	return b
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("truncated payload (need %d, have %d)", n, len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) string() string {
	n := d.uint32()
	if n > 1<<20 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	b := d.take(int(n))
	return string(b)
}

func (d *decoder) state() program.State {
	var s program.State
	s.Instrs = d.uint64()
	s.Seg = int(int64(d.uint64()))
	s.SegDone = d.uint64()
	s.BlockPos = int(int64(d.uint64()))
	n := d.uint32()
	if n > 1<<16 {
		d.err = fmt.Errorf("implausible phase count %d", n)
		return s
	}
	s.Phases = make([]program.PhaseState, n)
	for i := range s.Phases {
		s.Phases[i].BlockExecs = d.uint64()
		s.Phases[i].Accesses = d.uint64()
	}
	return s
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(u uint64) float64 { return math.Float64frombits(u) }

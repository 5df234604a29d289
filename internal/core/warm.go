package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"specsampling/internal/cache"
	"specsampling/internal/pinball"
	"specsampling/internal/store"
	"specsampling/internal/timing"
)

// Live-points. A region's warm-up leaves its warmable tools (the allcache
// hierarchy, the timing core) in a state that is a pure function of the
// program, the warm-up start and length, and the tool configuration,
// because every region gets a fresh tool set. Measure stores that state
// once per call as a "warm" store entry and, on later runs, restores it
// and replays only the measured regions. This is the live-point of
// TurboSMARTS (Wenisch et al., SIGMETRICS 2006).
//
// A warmState has a compact binary form:
//
//	byte    tools: bit 0 a hierarchy follows (allcache), bit 1 a core
//	        follows (timing); 0 for a region without warm-up
//	hierarchy, per level (L1I, L1D, L2, L3, ITLB, DTLB):
//	        uvarint tag count, then per tag a uvarint (the stored tag+1,
//	        0 for an empty way), uvarint accesses, uvarint misses
//	core:   its hierarchy as above; uvarint predictor table size, then
//	        the gshare, bimodal and chooser tables, each packed four 2-bit
//	        counters to a byte, lowest bits first; uvarint history,
//	        branches, mispredicts; the cycles' float64 bits, 8 bytes
//	        little-endian; uvarint instrs
//
// Tags are varints because they are line addresses shifted right by the
// set bits: at small scale they take 1 to 3 bytes, and the form is about
// a quarter of the raw 8-byte one (a region of allcache state takes about
// 2.5 KB, of timing state about 4.2 KB). The form is canonical: the decoder
// accepts only minimal varints, known tool bits, zero padding bits and no
// trailing bytes, and checks every count against the bytes left before it
// allocates. The stored artifact is a uvarint region count followed by
// each region's warmState; decoding it also restores each state into a
// fresh tool set, so a state whose geometry does not match the tool
// configuration fails the decode.

// Tool bits of a warmState's leading byte.
const (
	warmCache = 1 << iota
	warmCPI
)

// warmState is one region's live-point: its warmable tools' state where
// the warm-up run ends. Both fields are nil for a region without warm-up.
type warmState struct {
	cache *cache.State
	cpi   *timing.State
}

// errWarm is the decoder's one failure.
var errWarm = errors.New("core: malformed live-point encoding")

// warmState reads the probe's warmable tools.
func (p *probe) warmState() warmState {
	var s warmState
	if p.cache != nil {
		cs := p.cache.H.Snapshot()
		s.cache = &cs
	}
	if p.core != nil {
		ts := p.core.Snapshot()
		s.cpi = &ts
	}
	return s
}

// restore sets the probe's warmable tools from s, which must carry
// exactly the probe's tools.
func (p *probe) restore(s warmState) error {
	if (s.cache != nil) != (p.cache != nil) || (s.cpi != nil) != (p.core != nil) {
		return fmt.Errorf("core: live-point tools do not match the tool set")
	}
	if s.cache != nil {
		if err := p.cache.H.Restore(*s.cache); err != nil {
			return err
		}
	}
	if s.cpi != nil {
		return p.core.Restore(*s.cpi)
	}
	return nil
}

// appendBinary appends s in the compact form to b.
func (s warmState) appendBinary(b []byte) []byte {
	var tools byte
	if s.cache != nil {
		tools |= warmCache
	}
	if s.cpi != nil {
		tools |= warmCPI
	}
	b = append(b, tools)
	if s.cache != nil {
		b = appendHierarchy(b, s.cache)
	}
	if c := s.cpi; c != nil {
		b = appendHierarchy(b, &c.Cache)
		b = binary.AppendUvarint(b, uint64(len(c.Branch.Gshare)))
		b = appendCounters(b, c.Branch.Gshare)
		b = appendCounters(b, c.Branch.Bimodal)
		b = appendCounters(b, c.Branch.Chooser)
		b = binary.AppendUvarint(b, c.Branch.History)
		b = binary.AppendUvarint(b, c.Branch.Stats.Branches)
		b = binary.AppendUvarint(b, c.Branch.Stats.Mispredicts)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Cycles))
		b = binary.AppendUvarint(b, c.Instrs)
	}
	return b
}

// appendCounters packs 2-bit counters four to a byte.
func appendCounters(b []byte, t []uint8) []byte {
	for i := 0; i < len(t); i += 4 {
		var packed byte
		for j, c := range t[i:min(i+4, len(t))] {
			packed |= c & 3 << (2 * j)
		}
		b = append(b, packed)
	}
	return b
}

func appendHierarchy(b []byte, h *cache.State) []byte {
	for _, l := range h.Levels {
		b = binary.AppendUvarint(b, uint64(len(l.Tags)))
		for _, t := range l.Tags {
			b = binary.AppendUvarint(b, t)
		}
		b = binary.AppendUvarint(b, l.Stats.Accesses)
		b = binary.AppendUvarint(b, l.Stats.Misses)
	}
	return b
}

// warmArtifact is the stored payload of one Measure call's live-points:
// one warmState per pinball, in pinball order. Decoding checks the entry
// against pbs and tools, which the reader sets before the store.Get:
// one state per pinball, empty exactly where the pinball has no warm-up,
// each restored into a fresh probe of tools. The probes are the decode's
// result. Any mismatch fails the decode, so the store quarantines the
// entry and counts it on store.corrupt, and Measure recomputes it.
type warmArtifact struct {
	states []warmState

	pbs    []*pinball.Pinball
	tools  Tools
	probes []*probe
}

// MarshalBinary encodes the region count and every region's state.
func (a warmArtifact) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(a.states)))
	for _, s := range a.states {
		b = s.appendBinary(b)
	}
	return b, nil
}

// UnmarshalBinary decodes the states and restores them into a.probes.
func (a *warmArtifact) UnmarshalBinary(data []byte) error {
	d := warmDecoder{b: data}
	if n := d.count(uint64(len(d.b))); d.err != nil || n != len(a.pbs) {
		return errWarm
	}
	probes := make([]*probe, len(a.pbs))
	var s warmState // decode scratch, restored by copy
	for i, pb := range a.pbs {
		d.state(&s)
		if d.err != nil {
			return d.err
		}
		if (s.cache == nil && s.cpi == nil) == pb.HasWarmup {
			return fmt.Errorf("core: live-point %d does not match its pinball's warm-up", i)
		}
		p, err := a.tools.probe()
		if err != nil {
			return err
		}
		if pb.HasWarmup {
			if err := p.restore(s); err != nil {
				return fmt.Errorf("core: live-point %d: %w", i, err)
			}
		}
		probes[i] = p
	}
	if err := d.end(); err != nil {
		return err
	}
	a.probes = probes
	return nil
}

// warmKey is the store key of one Measure call's live-points. It extends
// the ProfileKey (bench, scale, division, slice length) under kind "warm"
// with everything the warmed state depends on: the full configuration of
// each warmable tool and every pinball's warm-up start and length ("-"
// for none). The ldstmix tool holds no warm-up state and is left out.
func (a *Analysis) warmKey(pbs []*pinball.Pinball, tools Tools) store.Key {
	k := a.Config.ProfileKey(a.Spec.Name)
	k.Kind = "warm"
	hier, cpi := "none", "none"
	if tools.Cache != nil {
		hier = fmt.Sprintf("%+v", *tools.Cache)
	}
	if tools.CPI != nil {
		cpi = fmt.Sprintf("%+v", *tools.CPI)
	}
	k.Parts = append(k.Parts, "cache="+hier, "cpi="+cpi)
	for _, pb := range pbs {
		w := "w=-"
		if pb.HasWarmup {
			w = fmt.Sprintf("w=%d+%d", pb.Warmup.Instrs, pb.WarmupLen)
		}
		k.Parts = append(k.Parts, w)
	}
	return k
}

// warmDecoder reads the compact form; the first failure sticks and every
// later read returns zero.
type warmDecoder struct {
	b   []byte
	err error
}

// state reads one warmState into s. It reuses the tag and counter slices
// s already holds, so a loop over regions allocates once.
func (d *warmDecoder) state(s *warmState) {
	tools := d.byte()
	if tools&^(warmCache|warmCPI) != 0 {
		d.fail()
	}
	if tools&warmCache == 0 {
		s.cache = nil
	} else {
		if s.cache == nil {
			s.cache = new(cache.State)
		}
		d.hierarchy(s.cache)
	}
	if tools&warmCPI == 0 {
		s.cpi = nil
		return
	}
	if s.cpi == nil {
		s.cpi = new(timing.State)
	}
	c := s.cpi
	d.hierarchy(&c.Cache)
	n := d.count(4 * uint64(len(d.b)) / 3)
	c.Branch.Gshare = d.counters(c.Branch.Gshare, n)
	c.Branch.Bimodal = d.counters(c.Branch.Bimodal, n)
	c.Branch.Chooser = d.counters(c.Branch.Chooser, n)
	c.Branch.History = d.uvarint()
	c.Branch.Stats.Branches = d.uvarint()
	c.Branch.Stats.Mispredicts = d.uvarint()
	c.Cycles = math.Float64frombits(d.uint64())
	c.Instrs = d.uvarint()
}

func (d *warmDecoder) hierarchy(h *cache.State) {
	for i := range h.Levels {
		l := &h.Levels[i]
		l.Tags = resize(l.Tags, d.count(uint64(len(d.b))))
		for j := range l.Tags {
			l.Tags[j] = d.uvarint()
		}
		l.Stats.Accesses = d.uvarint()
		l.Stats.Misses = d.uvarint()
	}
}

// resize returns buf with length n, reusing its array when it is large
// enough; nil for n == 0.
func resize[T any](buf []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// end fails on trailing bytes and returns the decode's outcome.
func (d *warmDecoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

func (d *warmDecoder) fail() {
	if d.err == nil {
		d.err = errWarm
	}
	d.b = nil
}

func (d *warmDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// uvarint reads a minimally encoded unsigned varint.
func (d *warmDecoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || n != (bits.Len64(x|1)+6)/7 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads a length that must not exceed limit.
func (d *warmDecoder) count(limit uint64) int {
	n := d.uvarint()
	if n > limit {
		d.fail()
		return 0
	}
	return int(n)
}

// uint64 reads eight little-endian bytes.
func (d *warmDecoder) uint64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	u := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return u
}

// counters unpacks n 2-bit counters into buf, resized to n. The padding
// bits of the last byte must be zero.
func (d *warmDecoder) counters(buf []uint8, n int) []uint8 {
	packed := (n + 3) / 4
	if len(d.b) < packed || n%4 != 0 && d.b[packed-1]>>(2*(n%4)) != 0 {
		d.fail()
		return nil
	}
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = d.b[i/4] >> (2 * (i % 4)) & 3
	}
	d.b = d.b[packed:]
	return buf
}

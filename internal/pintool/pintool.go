// Package pintool provides the reproduction's standard Pintools — the
// analogues of the tools shipped with Pin that the paper uses:
//
//   - InsCount: dynamic instruction counter (inscount0);
//   - LdStMix: dynamic memory-operand mix profiler (ldstmix);
//   - BBProfile: basic-block-vector collector (the PinPoints BBV profiler);
//   - AllCache: functional cache-hierarchy simulator (allcache).
//
// All tools attach to a pin.Engine and accumulate statistics; none perturbs
// execution.
package pintool

import (
	"specsampling/internal/bbv"
	"specsampling/internal/cache"
	"specsampling/internal/isa"
)

// InsCount counts dynamic instructions and basic blocks, like inscount0.
type InsCount struct {
	Instrs uint64
	Blocks uint64
}

// NewInsCount returns a fresh counter.
func NewInsCount() *InsCount { return &InsCount{} }

// Name implements pin.Tool.
func (*InsCount) Name() string { return "inscount" }

// OnBlock implements pin.BlockTool.
func (t *InsCount) OnBlock(b *isa.Block, _ int) {
	t.Instrs += uint64(b.Len())
	t.Blocks++
}

// LdStMix accumulates the instruction-distribution categories the paper
// reports (NO_MEM / MEM_R / MEM_W / MEM_RW), like the ldstmix Pintool.
// Because every static block knows its own mix, the tool runs at block
// granularity.
type LdStMix struct {
	Mix isa.Mix
}

// NewLdStMix returns a fresh profiler.
func NewLdStMix() *LdStMix { return &LdStMix{} }

// Name implements pin.Tool.
func (*LdStMix) Name() string { return "ldstmix" }

// OnBlock implements pin.BlockTool.
func (t *LdStMix) OnBlock(b *isa.Block, _ int) {
	t.Mix.Add(b.Mix)
}

// Fractions returns the four category shares in ldstmix order.
func (t *LdStMix) Fractions() [4]float64 { return t.Mix.Fractions() }

// BBProfile collects per-slice basic block vectors. Drive the engine in
// slice-sized steps and call CutSlice at each boundary, or use the
// simpoint package's profiler which does this for you.
type BBProfile struct {
	collector *bbv.Collector
	// Vectors holds the raw BBV of each completed slice.
	Vectors [][]float64
	// SliceLens holds the exact instruction count of each completed slice.
	SliceLens []uint64
}

// NewBBProfile returns a profiler for programs with dims static blocks.
func NewBBProfile(dims int) *BBProfile {
	return &BBProfile{collector: bbv.NewCollector(dims)}
}

// Name implements pin.Tool.
func (*BBProfile) Name() string { return "bbprofile" }

// OnBlock implements pin.BlockTool.
func (t *BBProfile) OnBlock(b *isa.Block, _ int) {
	t.collector.Observe(b)
}

// CutSlice finishes the current slice. Cutting with no accumulated
// instructions is a no-op.
func (t *BBProfile) CutSlice() {
	v, n := t.collector.Cut()
	if v == nil {
		return
	}
	t.Vectors = append(t.Vectors, v)
	t.SliceLens = append(t.SliceLens, n)
}

// AllCache feeds data accesses and instruction fetches into a cache
// hierarchy, like the allcache Pintool. Attach it and read the hierarchy's
// per-level statistics afterwards.
type AllCache struct {
	H *cache.Hierarchy
}

// NewAllCache wraps a hierarchy.
func NewAllCache(h *cache.Hierarchy) *AllCache { return &AllCache{H: h} }

// Name implements pin.Tool.
func (*AllCache) Name() string { return "allcache" }

// OnMem implements pin.MemTool.
func (t *AllCache) OnMem(ref isa.MemRef) {
	t.H.Data(ref.Addr)
}

// SetWarmup implements pinball.Warmable: during pinball warm-up the
// hierarchy learns without counting statistics.
func (t *AllCache) SetWarmup(on bool) { t.H.SetWarmup(on) }

// OnFetch implements pin.FetchTool: the block's code footprint is touched
// line by line in the instruction cache.
func (t *AllCache) OnFetch(pc uint64, bytes uint64) {
	lineBytes := t.H.L1I.Config().LineBytes
	for addr := pc &^ (lineBytes - 1); addr < pc+bytes; addr += lineBytes {
		t.H.Fetch(addr)
	}
}

// PhaseMix accumulates the instruction mix per phase — not one of the
// paper's tools, but useful for validating that the synthetic workloads
// realise their per-phase mix targets.
type PhaseMix struct {
	PerPhase map[int]*isa.Mix
}

// NewPhaseMix returns a fresh profiler.
func NewPhaseMix() *PhaseMix { return &PhaseMix{PerPhase: map[int]*isa.Mix{}} }

// Name implements pin.Tool.
func (*PhaseMix) Name() string { return "phasemix" }

// OnBlock implements pin.BlockTool.
func (t *PhaseMix) OnBlock(b *isa.Block, phase int) {
	m := t.PerPhase[phase]
	if m == nil {
		m = &isa.Mix{}
		t.PerPhase[phase] = m
	}
	m.Add(b.Mix)
}

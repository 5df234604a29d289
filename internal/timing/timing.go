// Package timing implements the reproduction's Sniper analogue: an
// interval-style out-of-order core timing model. Like Sniper, it does not
// simulate the pipeline cycle by cycle; it accounts a base dispatch cost
// per instruction and adds penalty intervals for branch mispredictions and
// memory accesses that miss in the cache hierarchy, with a configurable
// memory-level-parallelism overlap factor. This is exactly the level of
// abstraction the paper uses the real Sniper at (Table III machine,
// Section IV-E), and it produces CPI in the right regime (~0.3-2.0).
//
// The model is a Pintool (attach it to a pin.Engine or pass it to
// pinball.Replay) and is Warmable: during pinball warm-up it updates caches
// and predictor state without accumulating cycles.
package timing

import (
	"fmt"

	"specsampling/internal/branch"
	"specsampling/internal/cache"
	"specsampling/internal/isa"
)

// Config describes the simulated machine.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// FrequencyGHz converts cycles to wall-clock time in reports.
	FrequencyGHz float64
	// DispatchWidth is the sustained dispatch rate in instructions per
	// cycle (the fused-uop width of Table III).
	DispatchWidth float64
	// ROBEntries bounds the out-of-order window (used to cap miss overlap).
	ROBEntries int
	// BranchMissPenalty is the pipeline-refill cost of a misprediction, in
	// cycles.
	BranchMissPenalty float64
	// Caches is the hierarchy geometry.
	Caches cache.HierarchyConfig
	// L1Latency is the load-to-use latency of an L1 hit that the pipeline
	// cannot hide (0 means fully hidden).
	L1Latency float64
	// L2Latency, L3Latency and MemLatency are the additional cycles paid by
	// accesses satisfied at each deeper level.
	L2Latency  float64
	L3Latency  float64
	MemLatency float64
	// MLP is the average number of outstanding long-latency misses the
	// core overlaps; miss penalties are divided by it.
	MLP float64
	// FrontendStall is a fixed per-block cost modelling fetch/decode
	// discontinuities at taken branches.
	FrontendStall float64
	// Prefetch enables the hierarchy's next-line data prefetcher (on for
	// the i7-class machines; allcache has none).
	Prefetch bool
	// PageWalkLatency is the cycle cost of a DTLB miss (0 when the
	// hierarchy has no TLBs).
	PageWalkLatency float64
	// Branch sizes the branch predictor.
	Branch branch.Config
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DispatchWidth <= 0 {
		return fmt.Errorf("timing %s: dispatch width %v", c.Name, c.DispatchWidth)
	}
	if c.MLP <= 0 {
		return fmt.Errorf("timing %s: MLP %v", c.Name, c.MLP)
	}
	if c.MemLatency <= 0 {
		return fmt.Errorf("timing %s: memory latency %v", c.Name, c.MemLatency)
	}
	return nil
}

// TableIIIConfig reproduces the paper's Table III Sniper machine: an 8-core
// Intel i7-3770 modelled at 3.4 GHz with a 19-stage out-of-order pipeline,
// 4-wide commit, 168-entry ROB, 8-cycle branch-miss penalty, and a
// 32 kB/32 kB + 256 kB + 8 MB cache hierarchy with 64-byte lines and
// 4/10/30-cycle latencies. (The paper runs single-threaded rate binaries,
// so one core is modelled.)
func TableIIIConfig() Config {
	return Config{
		Name:              "sniper-i7-3770",
		FrequencyGHz:      3.4,
		DispatchWidth:     4,
		ROBEntries:        168,
		BranchMissPenalty: 8,
		Caches: cache.HierarchyConfig{
			L1I:  cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
			L1D:  cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
			L2:   cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
			L3:   cache.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
			ITLB: cache.DefaultITLB(),
			DTLB: cache.DefaultDTLB(),
		},
		PageWalkLatency: 25,
		L1Latency:       0, // hidden by the pipeline
		L2Latency:       10,
		L3Latency:       30,
		MemLatency:      180,
		MLP:             2.6,
		FrontendStall:   0.4,
		Prefetch:        true,
		Branch:          branch.DefaultConfig(),
	}
}

// ScaledConfig shrinks the machine's cache capacities (latencies, widths
// and penalties are unchanged) — the timing-model counterpart of
// cache.ScaledHierarchy, used when running scaled workloads.
func ScaledConfig(cfg Config, divs cache.ScaleDivs) Config {
	out := cfg
	out.Caches = cache.ScaledHierarchy(cfg.Caches, divs)
	return out
}

// Counters are the perf-style outputs of a timing run.
type Counters struct {
	// Instructions is the retired instruction count ("instructions").
	Instructions uint64
	// Cycles is the simulated cycle count ("cpu-cycles").
	Cycles float64
	// BranchStats mirrors the predictor's counters.
	BranchStats branch.Stats
}

// CPI returns cycles per instruction — the metric the paper compares
// between native execution and Sniper-on-SimPoints (Figure 12). Note the
// paper's caution (Section IV-D): CPI is instruction-normalised and may be
// weight-averaged; IPC may not.
func (c Counters) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return c.Cycles / float64(c.Instructions)
}

// Core is the timing model. Attach it to a pin.Engine (it implements
// BlockTool, MemTool, BranchTool and FetchTool) or pass it to
// pinball.Replay.
type Core struct {
	cfg  Config
	pred *branch.Predictor
	hier *cache.Hierarchy

	warm   bool
	cycles float64
	instrs uint64
}

// NewCore builds a core model.
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pred, err := branch.New(cfg.Branch)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	hier.EnablePrefetch(cfg.Prefetch)
	return &Core{cfg: cfg, pred: pred, hier: hier}, nil
}

// Config returns the machine description.
func (c *Core) Config() Config { return c.cfg }

// Hierarchy exposes the cache hierarchy (for miss-rate reporting).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Name implements pin.Tool.
func (*Core) Name() string { return "sniper" }

// SetWarmup implements pinball.Warmable: in warm-up, caches and the branch
// predictor learn but no cycles or instructions are accounted.
func (c *Core) SetWarmup(on bool) {
	c.warm = on
	c.hier.SetWarmup(on)
}

// OnBlock implements pin.BlockTool: base dispatch cost plus the frontend
// stall.
func (c *Core) OnBlock(b *isa.Block, _ int) {
	if c.warm {
		return
	}
	n := uint64(b.Len())
	c.instrs += n
	c.cycles += float64(n)/c.cfg.DispatchWidth + c.cfg.FrontendStall
}

// OnFetch implements pin.FetchTool: instruction-cache traffic; front-end
// misses stall the pipeline with no overlap.
func (c *Core) OnFetch(pc uint64, bytes uint64) {
	lineBytes := c.hier.L1I.Config().LineBytes
	for addr := pc &^ (lineBytes - 1); addr < pc+bytes; addr += lineBytes {
		switch c.hier.Fetch(addr) {
		case cache.HitL1:
		case cache.HitL2:
			if !c.warm {
				c.cycles += c.cfg.L2Latency
			}
		case cache.HitL3:
			if !c.warm {
				c.cycles += c.cfg.L3Latency
			}
		case cache.MissAll:
			if !c.warm {
				c.cycles += c.cfg.MemLatency
			}
		}
	}
}

// OnMem implements pin.MemTool: data-cache access with MLP-overlapped miss
// penalties, plus a page-walk penalty on DTLB misses.
func (c *Core) OnMem(ref isa.MemRef) {
	var tlbMissesBefore uint64
	if c.hier.DTLB != nil {
		tlbMissesBefore = c.hier.DTLB.Stats().Misses
	}
	lvl := c.hier.Data(ref.Addr)
	if c.warm {
		return
	}
	if c.hier.DTLB != nil && c.hier.DTLB.Stats().Misses > tlbMissesBefore {
		c.cycles += c.cfg.PageWalkLatency
	}
	switch lvl {
	case cache.HitL1:
		c.cycles += c.cfg.L1Latency
	case cache.HitL2:
		c.cycles += c.cfg.L2Latency / c.cfg.MLP
	case cache.HitL3:
		c.cycles += c.cfg.L3Latency / c.cfg.MLP
	case cache.MissAll:
		// Stores retire without stalling (store buffer); loads pay the
		// overlapped memory latency.
		p := c.cfg.MemLatency / c.cfg.MLP
		if ref.Write {
			p *= 0.3
		}
		c.cycles += p
	}
}

// OnBranch implements pin.BranchTool.
func (c *Core) OnBranch(ev isa.BranchEvent) {
	mis := c.pred.Access(ev.PC, ev.Taken)
	if c.warm {
		return
	}
	if mis {
		c.cycles += c.cfg.BranchMissPenalty
	}
}

// Counters returns the accumulated measurements.
func (c *Core) Counters() Counters {
	return Counters{
		Instructions: c.instrs,
		Cycles:       c.cycles,
		BranchStats:  c.pred.Stats(),
	}
}

// State is a core's microarchitectural state and accumulated measurements,
// the live-point a warm-up run leaves behind.
type State struct {
	Cache  cache.State
	Branch branch.State
	Cycles float64
	Instrs uint64
}

// Snapshot copies the core's state.
func (c *Core) Snapshot() State {
	return State{Cache: c.hier.Snapshot(), Branch: c.pred.Snapshot(), Cycles: c.cycles, Instrs: c.instrs}
}

// Restore sets the core's state from s, so it continues exactly as the core
// s was taken from. It fails unless s fits the core's hierarchy and
// predictor (see cache.Hierarchy.Restore and branch.Predictor.Restore). A
// failed restore may leave the predictor restored and the hierarchy not,
// so callers discard the core.
func (c *Core) Restore(s State) error {
	if err := c.pred.Restore(s.Branch); err != nil {
		return err
	}
	if err := c.hier.Restore(s.Cache); err != nil {
		return err
	}
	c.cycles, c.instrs = s.Cycles, s.Instrs
	return nil
}

// CPI is shorthand for Counters().CPI().
func (c *Core) CPI() float64 { return c.Counters().CPI() }

// Reset clears measurements and microarchitectural state.
func (c *Core) Reset() {
	c.cycles = 0
	c.instrs = 0
	c.hier.Reset()
	c.pred.ResetStats()
}

package cache

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func mkCache(t *testing.T, size uint64, ways int, lineBytes uint64) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", SizeBytes: size, Ways: ways, LineBytes: lineBytes})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// lruRef is the stamp-based true-LRU cache that the recency-ordered tag
// array replaced: every access advances a clock and stamps the line it
// touches, and a miss fills the first invalid way or else evicts the line
// with the oldest stamp. It is kept as the reference model that Cache must
// match access for access (see oracle_test.go).
type lruRef struct {
	lines     []refLine // sets * ways, set-major
	ways      int
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
	warmup    bool
}

type refLine struct {
	tag   uint64
	stamp uint64
	valid bool
}

func newLRURef(cfg Config) *lruRef {
	sets := cfg.Sets()
	return &lruRef{
		lines:     make([]refLine, sets*uint64(cfg.Ways)),
		ways:      cfg.Ways,
		setMask:   sets - 1,
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
	}
}

func (c *lruRef) locate(addr uint64) ([]refLine, uint64) {
	lineAddr := addr >> c.lineShift
	base := int(lineAddr&c.setMask) * c.ways
	return c.lines[base : base+c.ways], lineAddr >> bits.TrailingZeros64(c.setMask+1)
}

func (c *lruRef) Access(addr uint64) bool {
	ways, tag := c.locate(addr)
	c.clock++
	if !c.warmup {
		c.stats.Accesses++
	}
	victim := 0
	oldest := uint64(1<<64 - 1)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.stamp = c.clock
			return true
		}
		if !l.valid {
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if l.stamp < oldest {
			victim, oldest = i, l.stamp
		}
	}
	if !c.warmup {
		c.stats.Misses++
	}
	ways[victim] = refLine{tag: tag, stamp: c.clock, valid: true}
	return false
}

func (c *lruRef) Install(addr uint64) {
	saved := c.warmup
	c.warmup = true
	c.Access(addr)
	c.warmup = saved
}

func (c *lruRef) Contains(addr uint64) bool {
	ways, tag := c.locate(addr)
	for _, l := range ways {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *lruRef) SetWarmup(on bool) { c.warmup = on }
func (c *lruRef) Stats() Stats      { return c.stats }
func (c *lruRef) ResetStats()       { c.stats = Stats{} }

func (c *lruRef) Reset() {
	clear(c.lines)
	c.stats = Stats{}
	c.clock = 0
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", SizeBytes: 32 << 10, Ways: 4, LineBytes: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero-size", SizeBytes: 0, Ways: 1, LineBytes: 32},
		{Name: "zero-ways", SizeBytes: 1024, Ways: 0, LineBytes: 32},
		{Name: "zero-line", SizeBytes: 1024, Ways: 1, LineBytes: 0},
		{Name: "indivisible", SizeBytes: 1000, Ways: 3, LineBytes: 32},
		{Name: "npo2-line", SizeBytes: 96 * 24, Ways: 1, LineBytes: 24},
		{Name: "one-byte-line", SizeBytes: 64, Ways: 64, LineBytes: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q accepted", cfg.Name)
		}
	}
}

func TestTableIConfigMatchesPaper(t *testing.T) {
	cfg := TableIConfig()
	if cfg.L1I.SizeBytes != 32<<10 || cfg.L1I.Ways != 32 || cfg.L1I.LineBytes != 32 {
		t.Errorf("L1I = %+v", cfg.L1I)
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Ways != 32 {
		t.Errorf("L1D = %+v", cfg.L1D)
	}
	if cfg.L2.SizeBytes != 2<<20 || cfg.L2.Ways != 1 {
		t.Errorf("L2 = %+v (must be 2MB direct-mapped)", cfg.L2)
	}
	if cfg.L3.SizeBytes != 16<<20 || cfg.L3.Ways != 1 {
		t.Errorf("L3 = %+v (must be 16MB direct-mapped)", cfg.L3)
	}
	if _, err := NewHierarchy(cfg); err != nil {
		t.Errorf("Table I config does not build: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mkCache(t, 1024, 2, 32)
	if c.Access(0x100) {
		t.Error("first access should miss")
	}
	if !c.Access(0x100) {
		t.Error("second access should hit")
	}
	if !c.Access(0x11f) {
		t.Error("same-line access should hit")
	}
	if c.Access(0x120) {
		t.Error("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2 sets, 32B lines: lines mapping to set 0 are multiples of 64.
	c := mkCache(t, 128, 2, 32)
	c.Access(0)       // set 0, way A
	c.Access(64)      // set 0, way B
	c.Access(0)       // touch A: B is now LRU
	c.Access(128)     // evicts B
	if !c.Access(0) { // A must survive
		t.Error("LRU evicted the most-recently-used line")
	}
	if c.Access(64) { // B must be gone
		t.Error("LRU kept the least-recently-used line")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// Direct-mapped, 4 sets of 32B: addresses 0 and 128 collide.
	c := mkCache(t, 128, 1, 32)
	c.Access(0)
	c.Access(128)
	if c.Access(0) {
		t.Error("conflicting line survived in direct-mapped cache")
	}
}

func TestMissesNeverExceedAccesses(t *testing.T) {
	f := func(seed uint64, addrs []uint16) bool {
		c := mkCache(t, 4096, 4, 32)
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		s := c.Stats()
		return s.Misses <= s.Accesses && s.Accesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdenticalStreamsIdenticalStats(t *testing.T) {
	stream := make([]uint64, 5000)
	x := uint64(12345)
	for i := range stream {
		x = x*6364136223846793005 + 1442695040888963407
		stream[i] = x % (1 << 20)
	}
	run := func() Stats {
		c := mkCache(t, 32<<10, 8, 32)
		for _, a := range stream {
			c.Access(a)
		}
		return c.Stats()
	}
	if run() != run() {
		t.Error("same stream produced different stats")
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than the cache must reach 100% hits once warm.
	c := mkCache(t, 32<<10, 8, 32)
	for round := 0; round < 3; round++ {
		for addr := uint64(0); addr < 16<<10; addr += 32 {
			c.Access(addr)
		}
	}
	c.ResetStats()
	for addr := uint64(0); addr < 16<<10; addr += 32 {
		c.Access(addr)
	}
	if m := c.Stats().Misses; m != 0 {
		t.Errorf("%d misses on a warm, fitting working set", m)
	}
}

func TestWarmupModeUpdatesStateNotStats(t *testing.T) {
	c := mkCache(t, 1024, 2, 32)
	c.SetWarmup(true)
	c.Access(0x40)
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("warm-up accesses counted: %+v", s)
	}
	c.SetWarmup(false)
	if !c.Access(0x40) {
		t.Error("warm-up access did not install the line")
	}
	if s := c.Stats(); s.Accesses != 1 || s.Misses != 0 {
		t.Errorf("post-warm-up stats = %+v", s)
	}
}

func TestReset(t *testing.T) {
	c := mkCache(t, 1024, 2, 32)
	c.Access(0x40)
	c.Reset()
	if s := c.Stats(); s.Accesses != 0 {
		t.Error("Reset kept stats")
	}
	if c.Access(0x40) {
		t.Error("Reset kept contents")
	}
}

func TestContains(t *testing.T) {
	c := mkCache(t, 1024, 2, 32)
	if c.Contains(0x80) {
		t.Error("empty cache contains a line")
	}
	c.Access(0x80)
	before := c.Stats()
	if !c.Contains(0x80) {
		t.Error("cached line not found")
	}
	if c.Stats() != before {
		t.Error("Contains changed statistics")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle cache miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1I: Config{Name: "L1I", SizeBytes: 1024, Ways: 2, LineBytes: 32},
		L1D: Config{Name: "L1D", SizeBytes: 1024, Ways: 2, LineBytes: 32},
		L2:  Config{Name: "L2", SizeBytes: 8192, Ways: 1, LineBytes: 32},
		L3:  Config{Name: "L3", SizeBytes: 32768, Ways: 1, LineBytes: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Data(0x100); lvl != MissAll {
		t.Errorf("cold access level = %v", lvl)
	}
	if lvl := h.Data(0x100); lvl != HitL1 {
		t.Errorf("warm access level = %v", lvl)
	}
	// Evict from tiny L1D with conflicting lines; L2 should still hold it.
	for i := uint64(1); i <= 4; i++ {
		h.Data(0x100 + i*1024) // same L1 set (1024B L1 with 16 sets: stride 512 actually)
	}
	// Rather than relying on the precise geometry, verify level ordering
	// statistically: total L2 accesses equal L1D misses.
	if h.L2.Stats().Accesses != h.L1D.Stats().Misses+h.L1I.Stats().Misses {
		t.Errorf("L2 accesses (%d) != L1D misses (%d) + L1I misses (%d)",
			h.L2.Stats().Accesses, h.L1D.Stats().Misses, h.L1I.Stats().Misses)
	}
	if h.L3.Stats().Accesses != h.L2.Stats().Misses {
		t.Errorf("L3 accesses (%d) != L2 misses (%d)", h.L3.Stats().Accesses, h.L2.Stats().Misses)
	}
}

func TestHierarchyFetchUsesL1I(t *testing.T) {
	h, err := NewHierarchy(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Fetch(0x400000)
	if h.L1I.Stats().Accesses != 1 {
		t.Error("fetch did not reach L1I")
	}
	if h.L1D.Stats().Accesses != 0 {
		t.Error("fetch touched L1D")
	}
}

func TestHierarchyResetAndWarmup(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	h.SetWarmup(true)
	h.Data(0x1000)
	h.SetWarmup(false)
	if lvl := h.Data(0x1000); lvl != HitL1 {
		t.Errorf("warm-up did not fill hierarchy: level %v", lvl)
	}
	h.Reset()
	if lvl := h.Data(0x1000); lvl != MissAll {
		t.Errorf("Reset did not clear hierarchy: level %v", lvl)
	}
}

func TestMissRatesAccessor(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	h.Data(0x2000)
	h.Data(0x2000)
	l1d, l2, l3 := h.MissRates()
	if l1d != 0.5 || l2 != 1 || l3 != 1 {
		t.Errorf("MissRates = %v %v %v", l1d, l2, l3)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, _ := New(Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 32, LineBytes: 32})
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.Access(x % (1 << 16))
	}
}

func BenchmarkHierarchyData(b *testing.B) {
	h, _ := NewHierarchy(TableIConfig())
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Data(x % (1 << 22))
	}
}

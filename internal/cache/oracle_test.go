package cache_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"specsampling/internal/cache"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// oracleGeometries returns every cache level the simulators build — Table I
// (allcache) and Table III (the timing core) at each workload scale, their
// scaled TLBs included — plus direct-mapped, 2-way and 32-way levels with
// few sets, deduplicated by geometry.
func oracleGeometries(tb testing.TB) []cache.Config {
	tb.Helper()
	var out []cache.Config
	seen := map[[3]uint64]bool{}
	add := func(c *cache.Cache) {
		cfg := c.Config()
		key := [3]uint64{cfg.SizeBytes, uint64(cfg.Ways), cfg.LineBytes}
		if !seen[key] {
			seen[key] = true
			out = append(out, cfg)
		}
	}
	for _, scale := range []workload.Scale{workload.ScaleSmall, workload.ScaleMedium, workload.ScaleFull} {
		for _, hc := range []cache.HierarchyConfig{
			cache.ScaledHierarchy(cache.TableIConfig(), scale.CacheDivs),
			timing.ScaledConfig(timing.TableIIIConfig(), scale.CacheDivs).Caches,
		} {
			h, err := cache.NewHierarchy(hc)
			if err != nil {
				tb.Fatal(err)
			}
			for _, c := range []*cache.Cache{h.L1I, h.L1D, h.L2, h.L3, cache.TLBCache(h.ITLB), cache.TLBCache(h.DTLB)} {
				add(c)
			}
		}
	}
	for _, cfg := range []cache.Config{
		{Name: "dm", SizeBytes: 256, Ways: 1, LineBytes: 32},
		{Name: "2way", SizeBytes: 256, Ways: 2, LineBytes: 32},
		{Name: "32way", SizeBytes: 2048, Ways: 32, LineBytes: 32},
	} {
		c, err := cache.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		add(c)
	}
	return out
}

// oracleOp is one step of a differential run.
type oracleOp struct {
	kind byte // one of the op* constants
	addr uint64
}

const (
	opAccess = iota
	opInstall
	opContains
	opWarmupOn
	opWarmupOff
	opResetStats
	opReset
)

// driveOracle replays ops through a Cache and the stamp-based reference in
// lockstep, failing at the first access whose outcome differs and on any
// difference in the final statistics.
func driveOracle(t *testing.T, cfg cache.Config, ops []oracleOp) {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cache.NewLRUReference(cfg)
	for i, op := range ops {
		switch op.kind {
		case opAccess:
			if got, want := c.Access(op.addr), ref.Access(op.addr); got != want {
				t.Fatalf("%s: op %d Access(%#x) = %v, reference %v", cfg.Name, i, op.addr, got, want)
			}
		case opInstall:
			cache.Install(c, op.addr)
			ref.Install(op.addr)
		case opContains:
			if got, want := c.Contains(op.addr), ref.Contains(op.addr); got != want {
				t.Fatalf("%s: op %d Contains(%#x) = %v, reference %v", cfg.Name, i, op.addr, got, want)
			}
		case opWarmupOn, opWarmupOff:
			c.SetWarmup(op.kind == opWarmupOn)
			ref.SetWarmup(op.kind == opWarmupOn)
		case opResetStats:
			c.ResetStats()
			ref.ResetStats()
		case opReset:
			c.Reset()
			ref.Reset()
		}
		if op.kind != opAccess && c.Stats() != ref.Stats() {
			t.Fatalf("%s: op %d (kind %d): stats %+v, reference %+v", cfg.Name, i, op.kind, c.Stats(), ref.Stats())
		}
	}
	if c.Stats() != ref.Stats() {
		t.Fatalf("%s: final stats %+v, reference %+v", cfg.Name, c.Stats(), ref.Stats())
	}
}

// oracleStream mixes the address patterns that make LRU order matter:
// uniform misses over twice the capacity, strided walks that sweep sets,
// and re-touches of recently used lines at every recency depth. Warm-up
// toggles, prefetch installs, Contains probes and the rare Reset ride along.
func oracleStream(cfg cache.Config, seed uint64, n int) []oracleOp {
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 17
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	span := 2 * lines
	recent := make([]uint64, 0, 64)
	stride, pos := uint64(1), uint64(0)
	ops := make([]oracleOp, 0, n)
	for len(ops) < n {
		r := next()
		var line uint64
		switch r % 8 {
		case 0, 1:
			line = next() % span
		case 2, 3:
			pos += stride
			if next()%256 == 0 {
				stride = 1 + next()%(2*uint64(cfg.Ways)+1)
			}
			line = pos % span
		default:
			if len(recent) == 0 {
				line = next() % span
			} else {
				line = recent[len(recent)-1-int(next()%uint64(len(recent)))]
			}
		}
		if len(recent) == cap(recent) {
			recent = recent[1:]
		}
		recent = append(recent, line)
		addr := line*cfg.LineBytes + next()%cfg.LineBytes
		kind := byte(opAccess)
		switch k := next() % 1000; {
		case k < 30:
			kind = opInstall
		case k < 80:
			kind = opContains
		case k < 84:
			kind = opWarmupOn
		case k < 88:
			kind = opWarmupOff
		case k < 89:
			kind = opResetStats
		case k < 90 && next()%4 == 0:
			kind = opReset
		}
		ops = append(ops, oracleOp{kind: kind, addr: addr})
	}
	return ops
}

// TestAccessMatchesLRUReference pins the recency-ordered tag array to the
// stamp-based true-LRU model it replaced: every access must hit or miss
// exactly as the reference does, on every geometry the simulators build.
func TestAccessMatchesLRUReference(t *testing.T) {
	for i, cfg := range oracleGeometries(t) {
		name := fmt.Sprintf("%s/%dB_%dway_%dB", cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
		t.Run(name, func(t *testing.T) {
			driveOracle(t, cfg, oracleStream(cfg, uint64(i)+1, 200_000))
		})
	}
}

// FuzzAccessMatchesLRUReference is the differential test over arbitrary op
// streams. data[0] picks the geometry; every following 3-byte group is one
// op: the low nibble of the first byte selects the kind (values past the
// last kind are accesses), the high nibble an offset within the line, and
// the next two bytes a line index, folded into twice the capacity so sets
// overflow.
func FuzzAccessMatchesLRUReference(f *testing.F) {
	geoms := oracleGeometries(f)
	for i, cfg := range geoms {
		seed := []byte{byte(i)}
		for _, op := range oracleStream(cfg, uint64(i)+1, 64) {
			line := op.addr / cfg.LineBytes % 65536
			seed = append(seed, op.kind|byte(op.addr%16)<<4, byte(line), byte(line>>8))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := geoms[int(data[0])%len(geoms)]
		span := 2 * cfg.SizeBytes / cfg.LineBytes
		var ops []oracleOp
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			kind := b[0] & 15
			if kind > opReset {
				kind = opAccess
			}
			line := uint64(binary.LittleEndian.Uint16(b[1:])) % span
			ops = append(ops, oracleOp{kind: kind, addr: line*cfg.LineBytes + uint64(b[0]>>4)})
		}
		driveOracle(t, cfg, ops)
	})
}

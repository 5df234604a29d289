package cache_test

import (
	"sync"
	"testing"

	"specsampling/internal/cache"
	"specsampling/internal/isa"
	"specsampling/internal/pin"
	"specsampling/internal/pintool"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// replayEvent is one recorded memory reference, or an instruction fetch of
// fetch bytes starting at ref.Addr when fetch is non-zero.
type replayEvent struct {
	ref   isa.MemRef
	fetch uint64
}

// recorder is a pin tool that logs the data and fetch stream in program
// order.
type recorder struct{ events []replayEvent }

func (*recorder) Name() string { return "recorder" }

func (r *recorder) OnMem(ref isa.MemRef) { r.events = append(r.events, replayEvent{ref: ref}) }

func (r *recorder) OnFetch(pc, bytes uint64) {
	r.events = append(r.events, replayEvent{ref: isa.MemRef{Addr: pc}, fetch: bytes})
}

// The replayed workload: one suite benchmark's whole run at small scale,
// so the stream carries a real program's temporal and spatial locality
// (hits on the most recent way, strided sweeps, phase changes) rather than
// the uniform-random addresses of BenchmarkCacheAccess.
const replayBench = "505.mcf_r"

var replayTrace = sync.OnceValues(func() ([]replayEvent, error) {
	spec, err := workload.ByName(replayBench)
	if err != nil {
		return nil, err
	}
	prog, err := spec.Build(workload.ScaleSmall)
	if err != nil {
		return nil, err
	}
	e := pin.NewEngine(prog)
	rec := &recorder{}
	if err := e.Attach(rec); err != nil {
		return nil, err
	}
	e.RunToEnd()
	return rec.events, nil
})

// memFetchTool is the part of a pin tool the replay drives.
type memFetchTool interface {
	OnMem(ref isa.MemRef)
	OnFetch(pc, bytes uint64)
}

// BenchmarkHierarchyReplay replays the recorded stream through the
// allcache tool on the scaled Table I hierarchy and through the timing
// core's memory path on the scaled Table III hierarchy (prefetcher on).
// One op is one whole stream; recording happens once, outside the timer.
func BenchmarkHierarchyReplay(b *testing.B) {
	events, err := replayTrace()
	if err != nil {
		b.Fatal(err)
	}
	divs := workload.ScaleSmall.CacheDivs
	tools := []struct {
		name string
		make func() (memFetchTool, error)
	}{
		{"allcache", func() (memFetchTool, error) {
			h, err := cache.NewHierarchy(cache.ScaledHierarchy(cache.TableIConfig(), divs))
			return pintool.NewAllCache(h), err
		}},
		{"timing", func() (memFetchTool, error) {
			return timing.NewCore(timing.ScaledConfig(timing.TableIIIConfig(), divs))
		}},
	}
	for _, tc := range tools {
		b.Run(tc.name, func(b *testing.B) {
			tool, err := tc.make()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ev := range events {
					if ev.fetch != 0 {
						tool.OnFetch(ev.ref.Addr, ev.fetch)
					} else {
						tool.OnMem(ev.ref)
					}
				}
			}
			b.ReportMetric(float64(len(events)), "events/op")
		})
	}
}

package telemetry

import (
	"runtime"
	"sync"
	"time"

	"specsampling/internal/obs"
)

// Probe publishes one subsystem's gauges; the collector calls every probe
// once per sampling tick. Probes must be safe for concurrent use with the
// subsystem they observe (they read atomics or take short locks — never
// block).
type Probe func()

// Collector is the runtime self-monitoring loop: a goroutine that runs the
// registered probes (queue depth, cache hit ratio, runtime heap/goroutine
// gauges) every interval, so the gauges GET /metrics exposes stay fresh.
type Collector struct {
	interval time.Duration
	probes   []Probe

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewCollector builds a collector running probes every interval (default
// 1s).
func NewCollector(interval time.Duration, probes ...Probe) *Collector {
	if interval <= 0 {
		interval = time.Second
	}
	return &Collector{
		interval: interval,
		probes:   probes,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine (idempotent). The probes run once
// immediately, so the gauges are populated once Start has returned.
func (c *Collector) Start() {
	c.startOnce.Do(func() {
		c.sample()
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.sample()
				}
			}
		}()
	})
}

// Close stops the sampling goroutine and waits for it to exit. Safe to
// call more than once, and before Start (the collector then never runs).
func (c *Collector) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: nothing to wait for
	<-c.done
}

// sample runs every probe once.
func (c *Collector) sample() {
	for _, p := range c.probes {
		p()
	}
}

// Runtime self-monitoring gauges, published by RuntimeProbe.
var (
	goroutinesGauge  = obs.GetGauge("runtime.goroutines")
	heapAllocGauge   = obs.GetGauge("runtime.heap_alloc_bytes")
	heapSysGauge     = obs.GetGauge("runtime.heap_sys_bytes")
	heapObjectsGauge = obs.GetGauge("runtime.heap_objects")
	gcCyclesGauge    = obs.GetGauge("runtime.gc_cycles")
	gcPauseGauge     = obs.GetGauge("runtime.gc_pause_total_ms")
	nextGCGauge      = obs.GetGauge("runtime.next_gc_bytes")
)

// RuntimeProbe publishes the Go runtime's health gauges: goroutine count
// and the heap/GC figures from runtime.ReadMemStats. ReadMemStats
// stop-the-worlds briefly; at the collector's 1 Hz default that is noise.
func RuntimeProbe() {
	goroutinesGauge.Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapAllocGauge.Set(int64(ms.HeapAlloc))
	heapSysGauge.Set(int64(ms.HeapSys))
	heapObjectsGauge.Set(int64(ms.HeapObjects))
	gcCyclesGauge.Set(int64(ms.NumGC))
	gcPauseGauge.Set(int64(ms.PauseTotalNs / 1e6))
	nextGCGauge.Set(int64(ms.NextGC))
}

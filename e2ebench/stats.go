package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"specsampling/internal/obs"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuSeconds is the CPU time this process has used so far, user plus
// system, over all its threads. The kernel does not charge a process for
// time the hypervisor takes from its virtual CPUs (steal), so on a shared
// host this grows with the work done where wall time also grows with the
// neighbours' load.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// layerClock is the traced run's instrumentation: it sums the wall time of
// calls into each layer. A nil clock is the untraced configuration, where
// time calls f with no clock reads at all.
type layerClock struct {
	mu   sync.Mutex
	busy map[string]time.Duration
}

func newLayerClock() *layerClock {
	return &layerClock{busy: map[string]time.Duration{}}
}

// time runs f as one call into layer name.
func (c *layerClock) time(name string, f func() error) error {
	if c == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.mu.Lock()
	c.busy[name] += d
	c.mu.Unlock()
	return err
}

// seconds is the busy time of one layer.
func (c *layerClock) seconds(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy[name].Seconds()
}

// total is the busy time summed over every layer.
func (c *layerClock) total() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum time.Duration
	for _, d := range c.busy {
		sum += d
	}
	return sum.Seconds()
}

// counters is a point-in-time copy of the program's obs registry, for
// taking deltas across a measured phase.
type counters map[string]obs.MetricValue

func snapshotCounters() counters {
	out := counters{}
	for _, mv := range obs.Snapshot() {
		out[mv.Name] = mv
	}
	return out
}

// delta is the growth of a counter since before.
func (after counters) delta(before counters, name string) float64 {
	return float64(after[name].Value - before[name].Value)
}

// histDelta is the histogram of observations made since before: bucket and
// count differences, with the bounds widened to the whole observed range.
func (after counters) histDelta(before counters, name string) obs.MetricValue {
	a, b := after[name], before[name]
	d := obs.MetricValue{Name: name, Kind: "histogram", Count: a.Count - b.Count, Max: a.Max}
	if d.Count <= 0 || len(a.Buckets) == 0 {
		d.Count = 0
		return d
	}
	d.Buckets = append([]int64(nil), a.Buckets...)
	for i := range b.Buckets {
		d.Buckets[i] -= b.Buckets[i]
	}
	return d
}

// heapMB is the live heap in MiB, measured after a collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// add accumulates into c the growth of every metric from before to after,
// so that c.delta(counters{}, name) sums several measured phases.
func (c counters) add(before, after counters) {
	for name, a := range after {
		b, d := before[name], c[name]
		d.Name, d.Kind = name, a.Kind
		d.Value += a.Value - b.Value
		d.Count += a.Count - b.Count
		d.Max = math.Max(d.Max, a.Max)
		if n := len(a.Buckets); n > 0 {
			if d.Buckets == nil {
				d.Buckets = make([]int64, n)
			}
			for i := range a.Buckets {
				d.Buckets[i] += a.Buckets[i]
				if i < len(b.Buckets) {
					d.Buckets[i] -= b.Buckets[i]
				}
			}
		}
		c[name] = d
	}
}

package cache

import (
	"reflect"
	"testing"

	"specsampling/internal/rng"
)

// drive sends n pseudo-random fetches and data accesses, a few of them in
// warm-up mode, through h.
func drive(h *Hierarchy, seed uint64, n int) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		h.SetWarmup(i%7 == 0)
		h.Data(r.Uint64n(1 << 16))
		h.Fetch(1<<30 + r.Uint64n(1<<12))
	}
	h.SetWarmup(false)
}

func scaledTableI(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(ScaledHierarchy(TableIConfig(), ScaleDivs{L1: 16, L2: 512, L3: 512}))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHierarchyRestoreContinuesIdentically checks that a hierarchy restored
// from a snapshot continues access for access like the one it was taken
// from, with and without the prefetcher.
func TestHierarchyRestoreContinuesIdentically(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		a, b := scaledTableI(t), scaledTableI(t)
		a.EnablePrefetch(prefetch)
		b.EnablePrefetch(prefetch)
		drive(a, 1, 5000)
		if err := b.Restore(a.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Fatal("restored hierarchy differs from its snapshot")
		}
		drive(a, 2, 5000)
		drive(b, 2, 5000)
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Errorf("prefetch=%v: restored hierarchy diverged", prefetch)
		}
	}
}

// TestHierarchyRestoreRejects checks that Restore refuses states the
// hierarchy cannot hold and leaves it unchanged.
func TestHierarchyRestoreRejects(t *testing.T) {
	h := scaledTableI(t)
	drive(h, 3, 2000)
	good := h.Snapshot()
	other, err := NewHierarchy(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	noTLB, err := NewHierarchy(HierarchyConfig{L1I: h.L1I.cfg, L1D: h.L1D.cfg, L2: h.L2.cfg, L3: h.L3.cfg})
	if err != nil {
		t.Fatal(err)
	}
	clone := func() State {
		var s State
		for i, l := range good.Levels {
			s.Levels[i] = LevelState{Tags: append([]uint64(nil), l.Tags...), Stats: l.Stats}
		}
		return s
	}
	short := clone()
	short.Levels[2].Tags = short.Levels[2].Tags[1:]
	gap := clone()
	gap.Levels[1].Tags[0] = 0 // L1D is set-associative and warm, so a line follows
	stats := clone()
	stats.Levels[3].Stats = Stats{Accesses: 1, Misses: 2}
	for name, s := range map[string]State{
		"wrong tag count":      short,
		"line after empty way": gap,
		"misses over accesses": stats,
		"other geometry":       other.Snapshot(),
		"missing TLBs":         noTLB.Snapshot(),
	} {
		if err := h.Restore(s); err == nil {
			t.Errorf("%s: Restore accepted", name)
		}
		if !reflect.DeepEqual(h.Snapshot(), good) {
			t.Errorf("%s: a failed Restore changed the hierarchy", name)
		}
	}
	if err := noTLB.Restore(good); err == nil {
		t.Error("a hierarchy without TLBs accepted TLB state")
	}
}

package cache

import (
	"fmt"
	"slices"
)

// LevelState is one level's contents and counters: its recency-ordered tag
// array (see Cache) and its statistics.
type LevelState struct {
	Tags  []uint64
	Stats Stats
}

// State is a hierarchy's microarchitectural state, the live-point a warm-up
// run leaves behind. Levels are L1I, L1D, L2, L3, ITLB and DTLB in that
// order; a disabled TLB's entry is empty.
type State struct {
	Levels [6]LevelState
}

// levels lists the hierarchy's caches in State order, nil for a disabled
// TLB.
func (h *Hierarchy) levels() [6]*Cache {
	out := [6]*Cache{h.L1I, h.L1D, h.L2, h.L3}
	if h.ITLB != nil {
		out[4] = h.ITLB.cache
	}
	if h.DTLB != nil {
		out[5] = h.DTLB.cache
	}
	return out
}

// Snapshot copies every level's tags and statistics.
func (h *Hierarchy) Snapshot() State {
	var s State
	for i, c := range h.levels() {
		if c != nil {
			s.Levels[i] = LevelState{Tags: slices.Clone(c.tags), Stats: c.stats}
		}
	}
	return s
}

// Restore sets every level's tags and statistics from s, so the hierarchy
// continues exactly as the one s was taken from. Warm-up mode and the
// prefetcher are configuration, not state, and are left as they are. It
// fails, changing nothing, unless every level of s has this hierarchy's
// geometry and is a state the model can reach: each set's empty ways
// trail its lines, and no level counts more misses than accesses.
func (h *Hierarchy) Restore(s State) error {
	lv := h.levels()
	for i, c := range lv {
		if err := c.check(s.Levels[i]); err != nil {
			return err
		}
	}
	for i, c := range lv {
		if c != nil {
			copy(c.tags, s.Levels[i].Tags)
			c.stats = s.Levels[i].Stats
		}
	}
	return nil
}

// check reports whether s fits level c (nil for a disabled TLB, which only
// an empty state fits).
func (c *Cache) check(s LevelState) error {
	if c == nil {
		if len(s.Tags) != 0 || s.Stats != (Stats{}) {
			return fmt.Errorf("cache: state for a disabled TLB")
		}
		return nil
	}
	if len(s.Tags) != len(c.tags) {
		return fmt.Errorf("cache %s: state has %d tags, level holds %d", c.cfg.Name, len(s.Tags), len(c.tags))
	}
	if s.Stats.Misses > s.Stats.Accesses {
		return fmt.Errorf("cache %s: state counts %d misses in %d accesses", c.cfg.Name, s.Stats.Misses, s.Stats.Accesses)
	}
	for base := 0; base < len(s.Tags); base += c.ways {
		set := s.Tags[base : base+c.ways]
		for w := 1; w < len(set); w++ {
			if set[w] != 0 && set[w-1] == 0 {
				return fmt.Errorf("cache %s: set %d has a line after an empty way", c.cfg.Name, base/c.ways)
			}
		}
	}
	return nil
}

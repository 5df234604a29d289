package cache

// Hooks for the external-package tests, which import the packages that
// define the production geometries (internal/timing, internal/workload)
// and so cannot live in package cache.

// LRUReference is the stamp-based reference model from cache_test.go.
type LRUReference = lruRef

// NewLRUReference builds the reference model for cfg.
func NewLRUReference(cfg Config) *LRUReference { return newLRURef(cfg) }

// Install is the prefetcher's statistics-free fill.
func Install(c *Cache, addr uint64) { c.install(addr) }

// TLBCache returns the cache a TLB is built on.
func TLBCache(t *TLB) *Cache { return t.cache }

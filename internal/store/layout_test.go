package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"specsampling/internal/obs"
)

// TestFlatLayout pins the on-disk contract: a Put lands at exactly
// <dir>/<kind>/<bench>-<digest>.art, the path stores have always used for
// unsharded entries.
func TestFlatLayout(t *testing.T) {
	s := mustOpen(t)
	key := testKey("slice=64")
	if err := s.Put(ctx, key, artifact{Total: 1}); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(s.Dir(), "profile", "505.mcf_r-"+key.Digest()+".art")
	if got := artifactPath(t, s); got != want {
		t.Fatalf("artifact at %s, want %s", got, want)
	}
}

// TestShardedCacheDirOpens: a directory written by the older sharded layout
// (a shards marker at the root, entries under kind/sNN/) opens without
// error. Its sharded entries are never read or counted; the flat slot
// misses and recomputes.
func TestShardedCacheDirOpens(t *testing.T) {
	dir := t.TempDir()
	key := testKey("slice=64")
	if err := os.WriteFile(filepath.Join(dir, "shards"), []byte("16\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Open(dir)
	if err != nil {
		t.Fatalf("open of a sharded cache dir: %v", err)
	}
	if err := old.Put(ctx, key, artifact{Name: "sharded"}); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "profile", "s0a")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(old.path(key), filepath.Join(shard, filepath.Base(old.path(key)))); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var out artifact
	if s.Get(ctx, key, &out) {
		t.Fatalf("sharded entry served: %+v", out)
	}
	if err := s.Put(ctx, key, artifact{Name: "flat"}); err != nil {
		t.Fatal(err)
	}
	if !s.Get(ctx, key, &out) || out.Name != "flat" {
		t.Fatalf("recomputed entry not served: %+v", out)
	}
	sharded := filepath.Join(shard, filepath.Base(old.path(key)))
	if _, err := os.Stat(sharded); err != nil {
		t.Fatalf("sharded entry gone: %v", err)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d beside a sharded leftover, want 1 (the flat entry)", got)
	}
}

// TestCrashDuringPutRecovery simulates a write killed between the temp-file
// create and the rename: the orphaned .tmp-* file must be reaped on the
// next open (once old enough to be unambiguous), the interrupted entry must
// read as a clean miss, and a fresh Put must recompute the slot.
func TestCrashDuringPutRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	survivor := testKey("slice=64")
	if err := s.Put(ctx, survivor, artifact{Name: "ok", Total: 5}); err != nil {
		t.Fatal(err)
	}

	// A killed write for a different key: the temp file exists, the final
	// name does not.
	victim := testKey("slice=128")
	orphan := filepath.Join(filepath.Dir(s.path(victim)), ".tmp-crashed")
	fresh := filepath.Join(filepath.Dir(s.path(victim)), ".tmp-live")
	if err := os.WriteFile(orphan, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	// A young temp file may belong to a live writer in another process and
	// must survive the reap.
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	obs.ResetMetrics()
	s2, err := Open(dir) // restart
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived restart: %s", orphan)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("young temp file reaped: %v", err)
	}
	if got := obs.GetCounter("store.reap").Value(); got != 1 {
		t.Errorf("store.reap = %d, want 1", got)
	}

	// The interrupted entry is a clean miss and recomputes.
	var out artifact
	if s2.Get(ctx, victim, &out) {
		t.Fatal("interrupted entry reported as hit")
	}
	if err := s2.Put(ctx, victim, artifact{Name: "recomputed", Total: 6}); err != nil {
		t.Fatal(err)
	}
	if !s2.Get(ctx, victim, &out) || out.Name != "recomputed" {
		t.Fatalf("recomputed entry not served: %+v", out)
	}
	// The neighbouring completed entry was untouched.
	if !s2.Get(ctx, survivor, &out) || out.Name != "ok" {
		t.Fatalf("survivor entry lost: %+v", out)
	}
}

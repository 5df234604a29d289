package store

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsampling/internal/obs"
)

var ctx = context.Background()

type artifact struct {
	Name   string
	Values []float64
	Total  uint64
}

func testKey(parts ...string) Key {
	return Key{Kind: "profile", Bench: "505.mcf_r", Parts: parts}
}

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := mustOpen(t)
	in := artifact{Name: "x", Values: []float64{1.5, -2.25, 0}, Total: 42}
	if err := s.Put(ctx, testKey("slice=64"), in); err != nil {
		t.Fatal(err)
	}
	var out artifact
	if !s.Get(ctx, testKey("slice=64"), &out) {
		t.Fatal("fresh entry missed")
	}
	if out.Name != in.Name || out.Total != in.Total || len(out.Values) != len(in.Values) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	for i := range in.Values {
		if out.Values[i] != in.Values[i] {
			t.Fatalf("value %d: got %v, want %v", i, out.Values[i], in.Values[i])
		}
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestMissOnDifferentKey(t *testing.T) {
	s := mustOpen(t)
	if err := s.Put(ctx, testKey("slice=64"), artifact{Total: 1}); err != nil {
		t.Fatal(err)
	}
	var out artifact
	// A changed config part, a changed kind and a changed benchmark all miss.
	if s.Get(ctx, testKey("slice=128"), &out) {
		t.Error("different config part hit the cache")
	}
	k := testKey("slice=64")
	k.Kind = "cluster"
	if s.Get(ctx, k, &out) {
		t.Error("different kind hit the cache")
	}
	k = testKey("slice=64")
	k.Bench = "541.leela_r"
	if s.Get(ctx, k, &out) {
		t.Error("different benchmark hit the cache")
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if err := s.Put(ctx, testKey(), artifact{}); err != nil {
		t.Fatal(err)
	}
	var out artifact
	if s.Get(ctx, testKey(), &out) {
		t.Error("nil store hit")
	}
	if s.Len() != 0 || s.Dir() != "" || s.Quarantined() != nil {
		t.Error("nil store accessors not zero")
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	s := mustOpen(t)
	if err := s.Put(ctx, testKey("a=1"), artifact{Total: 7}); err != nil {
		t.Fatal(err)
	}
	var tmps []string
	filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(info.Name(), ".tmp-") {
			tmps = append(tmps, path)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// artifactPath returns the single .art file in the store.
func artifactPath(t *testing.T, s *Store) string {
	t.Helper()
	var paths []string
	filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".art") {
			paths = append(paths, path)
		}
		return nil
	})
	if len(paths) != 1 {
		t.Fatalf("want exactly 1 artifact, found %v", paths)
	}
	return paths[0]
}

// corruptionCases mutates a valid entry in representative ways; every one
// must degrade to a quarantined miss, never an error or a bogus hit.
func TestCorruptEntriesQuarantinedAsMisses(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0xff
			return out
		}},
		{"flipped header byte", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[0] ^= 0xff
			return out
		}},
		{"truncated payload", func(b []byte) []byte {
			return append([]byte(nil), b[:len(b)-3]...)
		}},
		{"truncated header", func(b []byte) []byte {
			return append([]byte(nil), b[:headerLen-4]...)
		}},
		{"empty file", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t)
			if err := s.Put(ctx, testKey("a=1"), artifact{Name: "good", Total: 9}); err != nil {
				t.Fatal(err)
			}
			path := artifactPath(t, s)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(blob), 0o644); err != nil {
				t.Fatal(err)
			}

			obs.ResetMetrics()
			var out artifact
			if s.Get(ctx, testKey("a=1"), &out) {
				t.Fatal("corrupt entry reported as hit")
			}
			if got := obs.GetCounter("store.corrupt").Value(); got != 1 {
				t.Errorf("store.corrupt = %d, want 1", got)
			}
			if q := s.Quarantined(); len(q) != 1 {
				t.Errorf("quarantined = %v, want one entry", q)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry still readable at its original path")
			}
			// The slot is reusable: a fresh Put round-trips again.
			if err := s.Put(ctx, testKey("a=1"), artifact{Name: "fresh", Total: 10}); err != nil {
				t.Fatal(err)
			}
			if !s.Get(ctx, testKey("a=1"), &out) || out.Name != "fresh" {
				t.Fatalf("re-put entry not served: %+v", out)
			}
		})
	}
}

func TestUndecodablePayloadIsCorrupt(t *testing.T) {
	s := mustOpen(t)
	// A valid envelope whose payload is a gob of the wrong type.
	if err := s.Put(ctx, testKey("a=1"), "just a string"); err != nil {
		t.Fatal(err)
	}
	obs.ResetMetrics()
	var out artifact
	if s.Get(ctx, testKey("a=1"), &out) {
		t.Fatal("type-mismatched payload reported as hit")
	}
	if got := obs.GetCounter("store.corrupt").Value(); got != 1 {
		t.Errorf("store.corrupt = %d, want 1", got)
	}
	if q := s.Quarantined(); len(q) != 1 {
		t.Errorf("quarantined = %v, want one entry", q)
	}
}

func TestHitMissCounters(t *testing.T) {
	s := mustOpen(t)
	obs.ResetMetrics()
	var out artifact
	if s.Get(ctx, testKey("a=1"), &out) {
		t.Fatal("empty store hit")
	}
	if err := s.Put(ctx, testKey("a=1"), artifact{Total: 3}); err != nil {
		t.Fatal(err)
	}
	if !s.Get(ctx, testKey("a=1"), &out) {
		t.Fatal("stored entry missed")
	}
	if hits := obs.GetCounter("store.hit").Value(); hits != 1 {
		t.Errorf("store.hit = %d, want 1", hits)
	}
	if misses := obs.GetCounter("store.miss").Value(); misses != 1 {
		t.Errorf("store.miss = %d, want 1", misses)
	}
	if writes := obs.GetCounter("store.write").Value(); writes != 1 {
		t.Errorf("store.write = %d, want 1", writes)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}

func TestFlags(t *testing.T) {
	dir := t.TempDir()

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse([]string{"-cache-dir", dir}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.Dir() != dir {
		t.Fatalf("flags did not open %s", dir)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	f = BindFlags(fs)
	if err := fs.Parse([]string{"-cache-dir", dir, "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if s, err := f.Open(); err != nil || s != nil {
		t.Fatalf("-no-cache did not disable the store (store=%v err=%v)", s, err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	f = BindFlags(fs)
	f.Dir = "" // simulate no flag, no env
	if s, err := f.Open(); err != nil || s != nil {
		t.Fatalf("empty dir did not disable the store (store=%v err=%v)", s, err)
	}
}

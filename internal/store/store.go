// Package store is the pipeline's persistent artifact cache: a
// content-addressed, on-disk store for the expensive stage outputs of the
// reproduction (per-benchmark BBV profiles, SimPoint clusterings and
// whole-run replay profiles). It is the durable layer behind the in-memory
// singleflight caches — the lookup order everywhere is memory cache → disk
// store → compute — and it is what makes an interrupted suite run resumable:
// artifacts written before the interruption are served from disk on restart,
// so only the unfinished stages recompute.
//
// Keys are canonical: a Key names the artifact kind, the benchmark, and the
// exact configuration parts that determine the artifact's bytes (scale,
// slice length, clustering knobs, …), and the on-disk path is derived from a
// SHA-256 digest of those parts plus a code-version salt. Any configuration
// change therefore lands on a different path and the stale entry is simply
// never read again — invalidation is structural, not mutable metadata.
// Worker counts are deliberately excluded from every key: results are
// byte-identical for any parallelism, so artifacts are shared across worker
// budgets.
//
// Entries are written crash-safely: the payload is framed with a magic,
// length and CRC-64 header, written to a temp file in the destination
// directory, fsynced, and atomically renamed into place (with a best-effort
// directory fsync). A reader can therefore never observe a half-written
// entry under a final name. Corrupt or truncated entries — a torn write from
// a power cut, bit rot, a partial copy — are detected by the header check on
// read, quarantined into the store's quarantine/ directory for post-mortem,
// counted on the store.corrupt counter, and reported as misses: corruption
// degrades to recompute, never to failure. A write that died between the
// temp-file create and the rename leaves an orphaned .tmp-* file; Open reaps
// orphans older than an hour (young ones may belong to a live writer
// sharing the directory), so a crashed run never accretes garbage.
//
// The on-disk layout is flat: one directory per artifact kind, one file per
// entry, <dir>/<kind>/<bench>-<digest>.art. The traffic is a few hundred
// puts per suite pass and warm-store gets, so no directory is ever
// contended and the layout needs no fan-out. Entries an older sharded
// layout left in per-kind sNN/ subdirectories are never read again, like any
// other structurally invalidated entry, and Len does not count them.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specsampling/internal/obs"
)

// Version is the code-version salt folded into every key digest. Bump it
// whenever a pipeline change alters the bytes a stage produces for the same
// configuration, or the encoding of a stored payload changes; every
// existing cache entry then misses cleanly. v2: profile slices are stored
// in simpoint.Slice's compact binary form. v3: the profile stage is split
// into the checkpoint-only profile and the bbv vectors. v4: the whole-run
// mix, cache and CPI profiles are one whole artifact. v5: the profile's
// checkpoints are one delta-coded simpoint checkpoint run.
const Version = "specart-v5"

// Envelope framing: an 8-byte magic, the big-endian payload length, and the
// CRC-64/ECMA of the payload, followed by the gob payload itself.
const (
	magic     = "SPSART01"
	headerLen = len(magic) + 8 + 8
)

// quarantineDir is where corrupt entries are moved, relative to the root.
const quarantineDir = "quarantine"

// tempMaxAge is how old an orphaned .tmp-* file must be before Open reaps
// it. Younger temp files may belong to a writer in another process sharing
// the directory, so they are left alone.
const tempMaxAge = time.Hour

var crcTable = crc64.MakeTable(crc64.ECMA)

// Store metrics. hit/miss/corrupt are the read outcomes; write and
// write_error track the persist path (a failed write is recorded, not
// fatal — the pipeline result is still returned to the caller).
var (
	hitCounter      = obs.GetCounter("store.hit")
	missCounter     = obs.GetCounter("store.miss")
	corruptCounter  = obs.GetCounter("store.corrupt")
	writeCounter    = obs.GetCounter("store.write")
	writeErrCounter = obs.GetCounter("store.write_error")
	reapCounter     = obs.GetCounter("store.reap")
)

// hitRatioGauge is the derived cache-health gauge Probe publishes: hits
// per thousand reads. A gauge (not a live computation) so scrapes see the
// value without re-deriving it, and in permille because obs gauges are
// integral.
var hitRatioGauge = obs.GetGauge("store.hit_ratio_permille")

// Probe publishes the hit-ratio gauge from the process-wide hit/miss
// counters. The telemetry collector runs it once per sampling tick; it is
// cheap (two atomic loads) and safe from any goroutine. With no reads yet
// the gauge stays at its zero value.
func Probe() {
	hits, misses := hitCounter.Value(), missCounter.Value()
	if total := hits + misses; total > 0 {
		hitRatioGauge.Set(hits * 1000 / total)
	}
}

// Key names one artifact. Kind and Bench locate it (kind subdirectory,
// benchmark-prefixed filename, for human navigation of the cache dir);
// Parts are the canonical configuration strings that, together with the
// Version salt, form the content-addressing digest.
type Key struct {
	// Kind is the artifact family ("profile", "cluster", "whole", …).
	Kind string
	// Bench is the benchmark name the artifact belongs to.
	Bench string
	// Parts are "name=value" configuration strings in a fixed order.
	Parts []string
}

// digest hashes the version salt and every key component, NUL-separated so
// concatenation ambiguities cannot alias two keys.
func (k Key) digest() string { return k.digestAt(Version) }

// digestAt is digest under an explicit version salt.
func (k Key) digestAt(version string) string {
	h := sha256.New()
	for _, s := range append([]string{version, k.Kind, k.Bench}, k.Parts...) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Digest exposes the key's content-addressing digest (version salt folded
// in). The serving layer uses it as the canonical identity of a job
// configuration, so two clients submitting the same work deduplicate onto
// one computation exactly when their artifacts would share cache entries.
func (k Key) Digest() string { return k.digest() }

// sanitize maps a benchmark name onto a safe filename fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}

// Store is an open artifact cache rooted at one directory. A nil *Store is
// valid and behaves as an always-miss, never-store cache, so pipeline code
// threads it through unconditionally.
type Store struct {
	dir string
}

// Open creates (if needed) and opens the store rooted at dir, reaping
// orphaned temp files left by crashed writers.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	s.reapTemps()
	return s, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path is the artifact's final on-disk location.
func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, sanitize(k.Kind), sanitize(k.Bench)+"-"+k.digest()+".art")
}

// reapTemps removes orphaned .tmp-* files older than tempMaxAge anywhere
// under the root — the debris of a Put that died between the temp-file
// create and the rename. Best effort: a failed removal only means the
// orphan survives until the next open.
func (s *Store) reapTemps() {
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil || time.Since(info.ModTime()) < tempMaxAge {
			return nil
		}
		if os.Remove(path) == nil {
			reapCounter.Add(1)
		}
		return nil
	})
}

// Get looks key up and, on a hit, gob-decodes the payload into v (which
// must be a pointer to the type Put stored). It returns whether the lookup
// hit. Missing entries are misses; corrupt, truncated or undecodable
// entries are quarantined and reported as misses — Get never fails the
// pipeline over cache state. On a miss, v may have been partially written
// by a failed decode; callers pass a fresh zero value.
func (s *Store) Get(ctx context.Context, key Key, v interface{}) bool {
	if s == nil {
		return false
	}
	_, span := obs.Start(ctx, "store.get",
		obs.String("kind", key.Kind), obs.String("bench", key.Bench))
	defer span.End()
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		// Any read error, not-exist or otherwise, is a miss: the artifact is
		// recomputable.
		missCounter.Add(1)
		span.Annotate(obs.String("outcome", "miss"))
		return false
	}
	payload, err := checkEnvelope(data)
	if err == nil {
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); derr != nil {
			err = fmt.Errorf("store: decode: %w", derr)
		}
	}
	if err != nil {
		s.quarantine(path)
		corruptCounter.Add(1)
		missCounter.Add(1)
		span.Annotate(obs.String("outcome", "corrupt"))
		return false
	}
	hitCounter.Add(1)
	span.Annotate(obs.String("outcome", "hit"))
	return true
}

// checkEnvelope validates the length+checksum header and returns the
// payload slice.
func checkEnvelope(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("store: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	payload := data[headerLen:]
	wantLen := binary.BigEndian.Uint64(data[len(magic):])
	if wantLen != uint64(len(payload)) {
		return nil, fmt.Errorf("store: payload length %d, header says %d", len(payload), wantLen)
	}
	wantCRC := binary.BigEndian.Uint64(data[len(magic)+8:])
	if got := crc64.Checksum(payload, crcTable); got != wantCRC {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	return payload, nil
}

// quarantine moves a corrupt entry aside (best effort — if the move itself
// fails the entry is removed so it cannot poison the next read).
func (s *Store) quarantine(path string) {
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// Put gob-encodes v and writes it under key using the crash-safe protocol:
// temp file in the destination directory, fsync, atomic rename, directory
// fsync. Put deliberately ignores ctx cancellation for the write itself
// (ctx only parents the tracing span): an artifact computed by a stage that
// finished just as the run was interrupted is exactly what resumption wants
// on disk. The returned error is informational — callers treat a failed
// cache write as a non-event, and it is counted on store.write_error.
func (s *Store) Put(ctx context.Context, key Key, v interface{}) error {
	if s == nil {
		return nil
	}
	_, span := obs.Start(ctx, "store.put",
		obs.String("kind", key.Kind), obs.String("bench", key.Bench))
	defer span.End()
	err := s.put(key, v)
	if err != nil {
		writeErrCounter.Add(1)
		span.Annotate(obs.String("outcome", "error"))
		return err
	}
	writeCounter.Add(1)
	return nil
}

func (s *Store) put(key Key, v interface{}) error {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write(make([]byte, 16)) // length + CRC, patched below
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("store: encode %s/%s: %w", key.Kind, key.Bench, err)
	}
	data := buf.Bytes()
	payload := data[headerLen:]
	binary.BigEndian.PutUint64(data[len(magic):], uint64(len(payload)))
	binary.BigEndian.PutUint64(data[len(magic)+8:], crc64.Checksum(payload, crcTable))

	path := s.path(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so the rename that landed in it is durable.
// Best effort: not every filesystem supports it, and a failure only
// weakens durability, never correctness.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best effort by contract; see the function comment
		_ = d.Close()
	}
}

// Len counts the artifacts currently stored: the flat
// <dir>/<kind>/*.art entries. Quarantined entries and anything deeper (an
// older layout's kind/sNN/ shards) are excluded.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	// An unreadable directory counts what was read of it: Len is a
	// diagnostic count, not a lookup.
	kinds, _ := os.ReadDir(s.dir)
	n := 0
	for _, k := range kinds {
		if !k.IsDir() || k.Name() == quarantineDir {
			continue
		}
		ents, _ := os.ReadDir(filepath.Join(s.dir, k.Name()))
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".art") {
				n++
			}
		}
	}
	return n
}

// Quarantined lists the filenames of quarantined (corrupt) entries.
func (s *Store) Quarantined() []string {
	if s == nil {
		return nil
	}
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

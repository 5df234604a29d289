package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// The persistent store's pipeline-level contract: an interrupted suite run
// resumes from the completed stages on restart and produces reports
// byte-identical to an uninterrupted cold run, and corrupt cache entries
// degrade to recompute — never to failure, never to different numbers.

var resumeBenches = []string{"520.omnetpp_r", "505.mcf_r", "503.bwaves_r"}

// resumeSnapshot runs the store-covered experiments (TableII: analyses;
// Fig7: whole mixes; Fig8: whole caches) on a fresh runner and returns a
// canonical JSON rendition. All three are wall-clock-free, so snapshots
// must be byte-identical across runs, stores and interruption patterns.
func resumeSnapshot(t *testing.T, benches []string, st *store.Store) string {
	t.Helper()
	r, err := New(Options{
		Scale:      workload.ScaleSmall,
		Benchmarks: benches,
		Workers:    1,
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	tableII, err := r.TableII(tctx)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := r.Fig7(tctx)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := r.Fig8(tctx)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(map[string]interface{}{
		"tableII": tableII, "fig7": fig7, "fig8": fig8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// cancelSink cancels a context as soon as the n-th per-benchmark analysis
// completes — the deterministic stand-in for a user hitting Ctrl-C
// mid-suite.
type cancelSink struct {
	mu     sync.Mutex
	seen   int
	after  int
	cancel context.CancelFunc
}

func (s *cancelSink) SpanEnd(*obs.SpanData) {}
func (s *cancelSink) Close() error          { return nil }
func (s *cancelSink) Progress(ev obs.ProgressEvent) {
	if ev.Stage != "analyze" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if s.seen == s.after {
		s.cancel()
	}
}

func TestResumeAfterCancelledRun(t *testing.T) {
	cold := resumeSnapshot(t, resumeBenches, nil)

	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1: prewarm the suite with one worker and kill the run (ctx
	// cancel) once the second benchmark's analysis lands. With workers=1
	// the schedule is sequential, so exactly benchmarks 1-2 reach the
	// store: bench 1 fully (profile, cluster, whole mix, whole cache),
	// bench 2 through clustering.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs.Enable(&cancelSink{after: 2, cancel: cancel})
	r1, err := New(Options{
		Scale:      workload.ScaleSmall,
		Benchmarks: resumeBenches,
		Workers:    1,
		Store:      st,
	})
	if err != nil {
		obs.Disable()
		t.Fatal(err)
	}
	err = r1.Prewarm(ctx, "all")
	obs.Disable()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted prewarm returned %v, want context.Canceled", err)
	}
	if st.Len() == 0 {
		t.Fatal("interrupted run persisted no artifacts")
	}

	// Pass 2: a fresh process image (new runner, fresh context) against the
	// same cache directory completes the suite; completed stages come from
	// disk, the rest recompute, and the reports are byte-identical.
	obs.ResetMetrics()
	warm := resumeSnapshot(t, resumeBenches, st)
	if warm != cold {
		t.Error("resumed run is not byte-identical to the cold run")
	}
	// From disk: benchmark 1's profile, selection, whole mix and whole
	// cache, and benchmark 2's profile and selection. Recomputed:
	// benchmark 2's two whole runs, benchmark 3's four stages, and every
	// benchmark's Fig8 live-points, which a prewarm never writes.
	hits := obs.GetCounter("store.hit").Value()
	misses := obs.GetCounter("store.miss").Value()
	if hits != 6 || misses != 9 {
		t.Errorf("resumed run served %d stages from disk and recomputed %d; want 6 and 9", hits, misses)
	}
	if got := obs.GetCounter("store.corrupt").Value(); got != 0 {
		t.Errorf("store.corrupt = %d after clean interrupt, want 0", got)
	}

	// Pass 3: fully warm — every stage must now come from disk.
	obs.ResetMetrics()
	rewarm := resumeSnapshot(t, resumeBenches, st)
	if rewarm != cold {
		t.Error("fully-warm run is not byte-identical to the cold run")
	}
	if misses := obs.GetCounter("store.miss").Value(); misses != 0 {
		t.Errorf("fully-warm run still missed %d times, want 0", misses)
	}
}

// corruptArtifacts damages every stored entry, alternating between a
// payload bit-flip and a truncation — the two failure shapes a torn write
// or bit rot produces.
func corruptArtifacts(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if n%2 == 0 {
			blob[len(blob)-1] ^= 0xff // flip a payload byte
		} else {
			blob = blob[:len(blob)/2] // truncate
		}
		n++
		return os.WriteFile(path, blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCorruptCacheEntriesDegradeToRecompute(t *testing.T) {
	benches := resumeBenches[:1]
	cold := resumeSnapshot(t, benches, nil)

	dir := filepath.Join(t.TempDir(), "cache")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumeSnapshot(t, benches, st); got != cold {
		t.Fatal("cached cold run differs from storeless run")
	}
	stored := st.Len()
	if stored == 0 {
		t.Fatal("no artifacts stored")
	}

	damaged := corruptArtifacts(t, dir)
	if damaged != stored {
		t.Fatalf("corrupted %d of %d artifacts", damaged, stored)
	}

	obs.ResetMetrics()
	if got := resumeSnapshot(t, benches, st); got != cold {
		t.Error("run over a corrupt cache is not byte-identical to the cold run")
	}
	// Every entry is read and found corrupt except each benchmark's bbv
	// entry: its profile missed, so the re-run profile supplied the vectors
	// and overwrote that entry unread.
	read := damaged - len(benches)
	if got := obs.GetCounter("store.corrupt").Value(); got != int64(read) {
		t.Errorf("store.corrupt = %d, want %d", got, read)
	}
	if got := obs.GetCounter("store.hit").Value(); got != 0 {
		t.Errorf("store.hit = %d over a fully corrupt cache, want 0", got)
	}
	if q := st.Quarantined(); len(q) != read {
		t.Errorf("quarantined %d entries, want %d", len(q), read)
	}
	// The bad entries were replaced: a further run is fully warm again.
	if got := st.Len(); got != stored {
		t.Errorf("store repopulated %d artifacts, want %d", got, stored)
	}
	obs.ResetMetrics()
	if got := resumeSnapshot(t, benches, st); got != cold {
		t.Error("re-warmed run differs from cold run")
	}
	if misses := obs.GetCounter("store.miss").Value(); misses != 0 {
		t.Errorf("re-warmed run missed %d times, want 0", misses)
	}
}

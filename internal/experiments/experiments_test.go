package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// tctx is the background context the package's tests thread through Runner.
var tctx = context.Background()

// testRunner uses a 4-benchmark subset at small scale so the whole
// experiment suite stays fast; the selected benchmarks cover the paper's
// behavioural extremes (few-phase, dominant-phase, uniform, pointer-chasing).
func testRunner(t testing.TB, out *bytes.Buffer) *Runner {
	t.Helper()
	var w io.Writer = io.Discard
	if out != nil {
		w = out
	}
	r, err := New(Options{
		Scale:      workload.ScaleSmall,
		Benchmarks: []string{"520.omnetpp_r", "505.mcf_r", "541.leela_r", "503.bwaves_r"},
		Out:        w,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks()) != 29 {
		t.Errorf("default suite has %d benchmarks", len(r.Benchmarks()))
	}
	if r.Scale().Name != "medium" {
		t.Errorf("default scale %q", r.Scale().Name)
	}
}

func TestRunUnknownID(t *testing.T) {
	r := testRunner(t, nil)
	if err := r.RunRecorded(tctx, "fig99", NewReport()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsCoverEveryExperiment(t *testing.T) {
	ids := IDs()
	want := []string{"tableI", "tableII", "tableIII", "fig3a", "fig3b", "fig4",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig12", "shootout"}
	if len(ids) != len(want) {
		t.Fatalf("IDs() = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
}

func TestTablesPrint(t *testing.T) {
	var out bytes.Buffer
	r := testRunner(t, &out)
	r.TableI()
	r.TableIII()
	text := out.String()
	for _, want := range []string{
		"Table I", "32kB 32-way", "2MB direct-mapped", "16MB direct-mapped",
		"Table III", "3.4 GHz", "168", "8MB 16-way",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in tables output", want)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.TableII(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Points <= 0 || row.Points90 <= 0 {
			t.Errorf("%s: degenerate counts %+v", row.Benchmark, row)
		}
		if row.Points90 > row.Points {
			t.Errorf("%s: 90th-percentile points exceed total", row.Benchmark)
		}
		// Measured counts should be in the neighbourhood of the paper's.
		if row.Points < row.PaperPoints/2-2 || row.Points > row.PaperPoints*2+4 {
			t.Errorf("%s: %d points vs paper %d — out of neighbourhood",
				row.Benchmark, row.Points, row.PaperPoints)
		}
	}
	if res.AvgPoints90 >= res.AvgPoints {
		t.Error("90th-percentile average should be below the full average")
	}
}

func TestFig3aShape(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig3a(tctx, "505.mcf_r", []int{3, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d sweep points", len(res.Points))
	}
	// A tiny MaxK forces fewer points and (typically) worse mix accuracy.
	small, large := res.Points[0], res.Points[1]
	if small.NumPoints > 3 {
		t.Errorf("MaxK=3 produced %d points", small.NumPoints)
	}
	if large.NumPoints <= small.NumPoints {
		t.Errorf("MaxK=20 (%d points) should find more than MaxK=3 (%d)",
			large.NumPoints, small.NumPoints)
	}
	errSmall := mixAbsErrPct(small.Mix, res.Whole.Mix)
	errLarge := mixAbsErrPct(large.Mix, res.Whole.Mix)
	if errLarge > errSmall+0.5 {
		t.Errorf("larger MaxK degraded mix error: %v vs %v", errLarge, errSmall)
	}
}

func TestFig3bShape(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig3b(tctx, "505.mcf_r", []uint64{15_000_000, 30_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d sweep points", len(res.Points))
	}
	if res.Points[0].Label != "slice=15M" || res.Points[1].Label != "slice=30M" {
		t.Errorf("labels: %q %q", res.Points[0].Label, res.Points[1].Label)
	}
	// Larger slices reduce cold-start L3 inflation (Section IV-A): the L3
	// rate at slice=30M must not exceed the slice=15M rate.
	if res.Points[1].Cache.L3 > res.Points[0].Cache.L3+0.02 {
		t.Errorf("L3 miss rate grew with slice size: %v -> %v",
			res.Points[0].Cache.L3, res.Points[1].Cache.L3)
	}
}

func TestFig4VarianceDecreases(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig4(tctx, []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	for bench, vs := range res.Variance {
		if vs[20] > vs[5] {
			t.Errorf("%s: variance grew with clusters: k=5 %v, k=20 %v", bench, vs[5], vs[20])
		}
	}
}

func TestFig5Reductions(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig5(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's headline: sampling reduces instructions dramatically and
	// reduction deepens for the 90th-percentile runs.
	if res.SuiteInstrReductionRegional < 20 {
		t.Errorf("regional instruction reduction only %vx", res.SuiteInstrReductionRegional)
	}
	if res.SuiteInstrReductionReduced <= res.SuiteInstrReductionRegional {
		t.Error("reduced runs should reduce instructions further")
	}
	if res.SuiteTimeReductionRegional <= 1 {
		t.Errorf("time reduction %vx", res.SuiteTimeReductionRegional)
	}
}

func TestFig6WeightShapes(t *testing.T) {
	r := testRunner(t, nil)
	rows, err := r.Fig6(tctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig6Row{}
	for _, row := range rows {
		byName[row.Benchmark] = row
		var sum float64
		for i, w := range row.Weights {
			if w <= 0 {
				t.Errorf("%s: weight %d is %v", row.Benchmark, i, w)
			}
			if i > 0 && w > row.Weights[i-1]+1e-9 {
				t.Errorf("%s: weights not descending", row.Benchmark)
			}
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: weights sum to %v", row.Benchmark, sum)
		}
		if row.Count90 > len(row.Weights) {
			t.Errorf("%s: count90 %d > points %d", row.Benchmark, row.Count90, len(row.Weights))
		}
	}
	// bwaves must be far more weight-skewed than leela (Fig. 6's story).
	bw, le := byName["503.bwaves_r"], byName["541.leela_r"]
	if bw.Weights[0] <= le.Weights[0] {
		t.Errorf("bwaves top weight %v should exceed leela's %v", bw.Weights[0], le.Weights[0])
	}
}

func TestFig7ErrorsSmall(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig7(tctx)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: <1% error. Allow slack at small scale.
	if res.AvgAbsErrRegional > 1.5 {
		t.Errorf("regional mix error %v pp", res.AvgAbsErrRegional)
	}
	if res.AvgAbsErrReduced > 3 {
		t.Errorf("reduced mix error %v pp", res.AvgAbsErrReduced)
	}
	// Suite mix should be near the paper's 49.1/36.7/12.9 split.
	if res.SuiteWholeMix[0] < 0.40 || res.SuiteWholeMix[0] > 0.62 {
		t.Errorf("suite NO_MEM share %v", res.SuiteWholeMix[0])
	}
	if res.SuiteWholeMix[1] < 0.25 || res.SuiteWholeMix[1] > 0.48 {
		t.Errorf("suite MEM_R share %v", res.SuiteWholeMix[1])
	}
}

func TestFig8GradientAndWarmup(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig8(tctx)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's two key claims: (1) sampling error grows for caches
	// further from the CPU; (2) warm-up collapses the LLC error.
	if res.RegionalDiff[0] >= res.RegionalDiff[2] {
		t.Errorf("L1D error %v should be far below L3 error %v",
			res.RegionalDiff[0], res.RegionalDiff[2])
	}
	if res.WarmupDiff[2] >= res.RegionalDiff[2] {
		t.Errorf("warm-up did not reduce L3 error: %v vs %v",
			res.WarmupDiff[2], res.RegionalDiff[2])
	}
	// L1D error must be small in absolute terms (paper: +0.18%).
	if abs := absFinite(res.RegionalDiff[0]); abs > 40 {
		t.Errorf("L1D regional diff %v%% too large", res.RegionalDiff[0])
	}
	// Fig8 result is cached.
	again, err := r.Fig8(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("Fig8 not cached")
	}
}

func TestFig9ErrorRisesAsPercentileDrops(t *testing.T) {
	r := testRunner(t, nil)
	pts, err := r.Fig9(tctx, []float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[1].Points >= pts[0].Points {
		t.Error("lower percentile should keep fewer points")
	}
	if pts[1].MixErrPct < pts[0].MixErrPct {
		t.Error("mix error should rise as the percentile drops")
	}
}

func TestFig10AccessesShrink(t *testing.T) {
	r := testRunner(t, nil)
	rows, err := r.Fig10(tctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Regional >= row.Whole {
			t.Errorf("%s: regional L3 accesses %d not below whole %d",
				row.Benchmark, row.Regional, row.Whole)
		}
		if row.Reduced > row.Regional {
			t.Errorf("%s: reduced L3 accesses exceed regional", row.Benchmark)
		}
	}
}

func TestFig12CPICorrelation(t *testing.T) {
	r := testRunner(t, nil)
	res, err := r.Fig12(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.NativeCPI <= 0 || row.RegionalCPI <= 0 || row.ReducedCPI <= 0 {
			t.Errorf("%s: degenerate CPIs %+v", row.Benchmark, row)
		}
	}
	// Paper: 2.59% average error, strong correlation. Allow slack at small
	// scale.
	if res.AvgCPIErrRegionalPct > 15 {
		t.Errorf("regional CPI error %v%%", res.AvgCPIErrRegionalPct)
	}
	if res.Correlation < 0.9 {
		t.Errorf("native/sampled CPI correlation %v", res.Correlation)
	}
}

func TestRunAllOnSingleBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	var out bytes.Buffer
	r, err := New(Options{
		Scale:      workload.ScaleSmall,
		Benchmarks: []string{"623.xalancbmk_s"},
		Out:        &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := NewReport()
	if err := r.RunRecorded(tctx, "all", report); err != nil {
		t.Fatal(err)
	}
	// Every experiment but the configuration prints tableI and tableIII
	// records a result.
	if report.Len() != 12 {
		t.Errorf("recorded %d results, want 12", report.Len())
	}
	for _, want := range []string{"Table I", "Table II", "Table III",
		"Figure 3(a)", "Figure 3(b)", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 12"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in run-all output", want)
		}
	}
}

func TestRunRecordedCollectsResults(t *testing.T) {
	r := testRunner(t, nil)
	report := NewReport()
	for _, id := range []string{"fig6", "tableII", "fig5"} {
		if err := r.RunRecorded(tctx, id, report); err != nil {
			t.Fatal(err)
		}
	}
	if report.Len() != 3 {
		t.Errorf("recorded %d results", report.Len())
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, "small", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	results, ok := decoded["results"].(map[string]interface{})
	if !ok || len(results) != 3 {
		t.Errorf("JSON results = %v", decoded["results"])
	}
	if err := r.RunRecorded(tctx, "fig99", report); err == nil {
		t.Error("unknown id accepted")
	}
	// tableI runs but records nothing (pure config print).
	if err := r.RunRecorded(tctx, "tableI", report); err != nil {
		t.Fatal(err)
	}
	if report.Len() != 3 {
		t.Error("tableI should not add a result")
	}
}

// spanSink counts the spans of one name per benchmark: "whole"
// (whole-program measurement passes), "native" (native reference runs) or,
// with a kind, the store spans of that artifact kind.
type spanSink struct {
	name   string
	kind   string // the span's "kind" attribute must equal it
	mu     sync.Mutex
	passes map[string]int
}

func newSpanSink(name string) *spanSink { return &spanSink{name: name, passes: map[string]int{}} }

func (s *spanSink) Progress(obs.ProgressEvent) {}
func (s *spanSink) Close() error               { return nil }
func (s *spanSink) SpanEnd(sd *obs.SpanData) {
	if sd.Name != s.name {
		return
	}
	var bench, kind string
	for _, a := range sd.Attrs {
		switch a.Key {
		case "bench":
			bench = a.Value.(string)
		case "kind":
			kind = a.Value.(string)
		}
	}
	if bench == "" || kind != s.kind {
		return
	}
	s.mu.Lock()
	s.passes[bench]++
	s.mu.Unlock()
}

// TestPrewarmCoversEachExperiment checks each table entry's needs: after
// Prewarm(id), RunRecorded(id) runs no whole-program or native pass and no
// analysis beyond Fig3b's own per-slice-size analyses.
func TestPrewarmCoversEachExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("one runner per experiment in -short mode")
	}
	for _, id := range IDs() {
		r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: []string{"505.mcf_r"}, ShootoutRepeats: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prewarm(tctx, id); err != nil {
			t.Fatal(err)
		}
		wholes, natives, analyses := newSpanSink("whole"), newSpanSink("native"), newSpanSink("analyze")
		obs.Enable(wholes, natives, analyses)
		err = r.RunRecorded(tctx, id, NewReport())
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		wantAnalyses := map[string]int{}
		if id == "fig3b" {
			wantAnalyses[fig3Benchmark] = 5 // the paper's five slice sizes
		}
		if len(wholes.passes) != 0 || len(natives.passes) != 0 || !reflect.DeepEqual(analyses.passes, wantAnalyses) {
			t.Errorf("%s after Prewarm: whole %v, native %v, analyze %v; want none but analyze %v",
				id, wholes.passes, natives.passes, analyses.passes, wantAnalyses)
		}
	}
}

// progressSink keeps the analyze progress events.
type progressSink struct {
	mu     sync.Mutex
	events []obs.ProgressEvent
}

func (s *progressSink) SpanEnd(*obs.SpanData) {}
func (s *progressSink) Close() error          { return nil }
func (s *progressSink) Progress(ev obs.ProgressEvent) {
	if ev.Stage != "analyze" {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// TestAnalyzeProgressWithinTotal checks that the analyze progress total
// counts the benchmarks the runs analyse: Fig. 3's benchmark outside the
// selected suite counts too, so done never exceeds total.
func TestAnalyzeProgressWithinTotal(t *testing.T) {
	r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: []string{"505.mcf_r"}})
	if err != nil {
		t.Fatal(err)
	}
	sink := &progressSink{}
	obs.Enable(sink)
	for _, id := range []string{"tableII", "fig3a"} {
		if err = r.RunRecorded(tctx, id, NewReport()); err != nil {
			break
		}
	}
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 2 {
		t.Fatalf("%d analyze events, want 2: %+v", len(sink.events), sink.events)
	}
	for i, ev := range sink.events {
		if ev.Done != i+1 || ev.Total != i+1 {
			t.Errorf("analyze event %d is (%d/%d) %s, want (%d/%d)", i, ev.Done, ev.Total, ev.Msg, i+1, i+1)
		}
	}
}

// TestPrewarmOneWholePassPerBenchmark checks that the shoot-out's three
// whole-run profiles (mix, cache, CPI) come from one whole-program pass per
// benchmark, with and without a store, and that a runner over the warmed
// store replays nothing.
func TestPrewarmOneWholePassPerBenchmark(t *testing.T) {
	benches := []string{"505.mcf_r", "541.leela_r"}
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store *store.Store
		want  int
	}{{"no store", nil, 1}, {"cold store", st, 1}, {"warm store", st, 0}} {
		r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: benches, Store: tc.store})
		if err != nil {
			t.Fatal(err)
		}
		sink := newSpanSink("whole")
		obs.Enable(sink)
		err = r.Prewarm(tctx, "shootout")
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range benches {
			if got := sink.passes[b]; got != tc.want {
				t.Errorf("%s: %s ran %d whole-run passes, want %d", tc.name, b, got, tc.want)
			}
		}
	}
}

// TestFiguresShareOneWholeRun checks that the figures comparing against
// the Whole run share one stored artifact: on a cold store, Fig7 (mix),
// Fig8 (cache) and the shoot-out (mix, cache and CPI) together run one
// whole-program pass and put one whole entry per benchmark.
func TestFiguresShareOneWholeRun(t *testing.T) {
	benches := []string{"505.mcf_r", "503.bwaves_r"}
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: benches, Store: st, ShootoutRepeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	passes := newSpanSink("whole")
	puts := &spanSink{name: "store.put", kind: "whole", passes: map[string]int{}}
	obs.Enable(passes, puts)
	if _, err = r.Fig7(tctx); err == nil {
		if _, err = r.Fig8(tctx); err == nil {
			_, err = r.Shootout(tctx)
		}
	}
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		if got := passes.passes[b]; got != 1 {
			t.Errorf("%s ran %d whole-run passes, want 1", b, got)
		}
		if got := puts.passes[b]; got != 1 {
			t.Errorf("%s put %d whole entries, want 1", b, got)
		}
	}
}

// TestFig12NativeServedFromStore checks that the native reference is a
// stored whole-run artifact: Fig12 on a cold store runs one native pass per
// benchmark, Prewarm("fig12") front-loads that pass, and a runner over a
// warm store runs none and reports identical bytes.
func TestFig12NativeServedFromStore(t *testing.T) {
	benches := []string{"505.mcf_r", "503.bwaves_r"}
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := store.Open(filepath.Join(t.TempDir(), "prewarm"))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, tc := range []struct {
		name    string
		store   *store.Store
		prewarm bool
		want    int
	}{
		{"cold store", st, false, 1},
		{"warm store", st, false, 0},
		{"prewarmed cold store", pre, true, 1},
		{"prewarmed warm store", pre, true, 0},
	} {
		r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: benches, Store: tc.store})
		if err != nil {
			t.Fatal(err)
		}
		sink := newSpanSink("native")
		obs.Enable(sink)
		rep := NewReport()
		if tc.prewarm {
			err = r.Prewarm(tctx, "fig12")
		}
		if err == nil {
			err = r.RunRecorded(tctx, "fig12", rep)
		}
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range benches {
			if got := sink.passes[b]; got != tc.want {
				t.Errorf("%s: %s ran %d native passes, want %d", tc.name, b, got, tc.want)
			}
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf, "small", benches); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: report differs from the cold run:\n%s\nwant:\n%s", tc.name, buf.Bytes(), want)
		}
	}
}

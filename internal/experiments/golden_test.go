package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"specsampling/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/report_small.golden.json from the current code")

// goldenPath is the pinned -json report of `-run all -scale small` over the
// full suite.
var goldenPath = filepath.Join("testdata", "report_small.golden.json")

// TestReportGolden pins the behaviour contract: every experiment's
// structured result at small scale over the full suite, byte for byte. The
// wall-clock fields (Fig. 5's run times and time reductions, Fig. 9's
// replay times) are the only nondeterministic ones and are blanked. A
// change that moves any other number fails here; regenerate the golden
// with `make golden` only when the change is meant to move it.
func TestReportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses multiply-adds on arm64, ppc64 and s390x, so the floats
		// differ in their last bits from the amd64-generated golden.
		t.Skipf("golden report is generated on amd64; GOARCH=%s rounds differently", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("full-suite run skipped in -short mode")
	}
	r, err := New(Options{Scale: workload.ScaleSmall})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport()
	if err := r.RunRecorded(tctx, "all", rep); err != nil {
		t.Fatal(err)
	}
	blankWallClock(t, rep)
	var names []string
	for _, s := range r.Benchmarks() {
		names = append(names, s.Name)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got, r.Scale().Name, names); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report differs from %s in length: %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

// blankWallClock zeroes the measured wall-clock fields of the recorded
// results, in place.
func blankWallClock(t *testing.T, rep *Report) {
	t.Helper()
	fig5, ok := rep.results["fig5"].(*Fig5Result)
	if !ok {
		t.Fatalf("fig5 result is %T", rep.results["fig5"])
	}
	for i := range fig5.Rows {
		c := &fig5.Rows[i].Comparison
		c.WholeTime, c.RegionalTime, c.ReducedTime = 0, 0, 0
	}
	fig5.SuiteTimeReductionRegional, fig5.SuiteTimeReductionReduced = 0, 0
	fig9, ok := rep.results["fig9"].([]Fig9Point)
	if !ok {
		t.Fatalf("fig9 result is %T", rep.results["fig9"])
	}
	for i := range fig9 {
		fig9[i].ReplayTime = 0
	}
}

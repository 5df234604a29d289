package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testSize keeps every workload to a few seconds.
var testSize = sizing{
	coldScale:            fullSize.coldScale,
	coldBenches:          []string{"505.mcf_r", "548.exchange2_r", "519.lbm_r"},
	coldSeeds:            2,
	coldPassSeconds:      1,
	remeasureScale:       fullSize.coldScale,
	remeasureBenches:     []string{"520.omnetpp_r", "511.povray_r"},
	remeasureSeeds:       2,
	remeasurePassSeconds: 1,
	daemonBenches:        []string{"505.mcf_r", "548.exchange2_r"},
	daemonJobs:           10,
	daemonRate:           20,
}

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runShort runs one workload at test size and parses its closing line.
func runShort(t *testing.T, name string, seed uint64, traced bool) printed {
	t.Helper()
	opt := options{
		seed: seed, seconds: 0.5, trace: traced, workdir: t.TempDir(),
		workers: runtime.NumCPU(), size: testSize,
	}
	out, err := workloads[name](context.Background(), opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out.e2e["max_rss_mb"] = peakRSSMB()
	var stdout, stderr bytes.Buffer
	if code := report(&stdout, &stderr, name, traced, out); code != 0 {
		t.Fatalf("%s (trace=%v) exited %d:\n%s", name, traced, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	return p
}

func TestShortRunPrintsEveryMetricAndPassesChecks(t *testing.T) {
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			p := runShort(t, name, 7, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, p.Correct, p.Failed, p.Attempted)
			}
			if len(p.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", name, traced, len(p.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := p.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	e2e := []string{"cpi_err_pct", "l3_miss_err_pp", "sampled_instr_pct"}
	layer := []string{"simpoint.slices", "selector.points", "pinball.replays", "kmeans.lloyd_iters"}
	for _, name := range []string{"cold-suite", "remeasure"} {
		a, b := runShort(t, name, 11, false), runShort(t, name, 11, false)
		for _, m := range e2e {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s %s: %v then %v with the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
	a, b := runShort(t, "cold-suite", 11, true), runShort(t, "cold-suite", 11, true)
	for _, m := range layer {
		if a.Metrics[m].Value != b.Metrics[m].Value || a.Metrics[m].Value == 0 {
			t.Errorf("cold-suite %s: %v then %v with the same seed", m, a.Metrics[m].Value, b.Metrics[m].Value)
		}
	}
}

func TestAlteredDaemonResultIsCaught(t *testing.T) {
	ctx := context.Background()
	st, err := openStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scale := testSize.coldScale
	cfgs := daemonConfigs([]string{"548.exchange2_r"}, 1)
	if err := fillStore(ctx, st, scale, 2, cfgs); err != nil {
		t.Fatal(err)
	}
	want, err := renderJob(ctx, st, scale, 2, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	altered := append([]byte(nil), want...)
	altered[len(altered)/2] ^= 1

	for _, tc := range []struct {
		want     []byte
		wantFail bool
	}{{want, false}, {altered, true}} {
		d, err := startDaemon(ctx, st, 2)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(d.url, 2)
		r := newRecord()
		runJob(ctx, c, r, 0, cfgs[0], tc.want, time.Now(), false, make(chan struct{}))
		c.tr.CloseIdleConnections()
		if err := d.stop(ctx); err != nil {
			t.Fatal(err)
		}
		caught := len(r.fails) == 1 && strings.Contains(r.fails[0], "first difference at byte")
		if caught != tc.wantFail || (!tc.wantFail && len(r.fails) != 0) {
			t.Errorf("altered=%v: failures %q", tc.wantFail, r.fails)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists to the
// ones this command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadOrder[i])
		}
	}
}

func TestWithoutWorkload(t *testing.T) {
	got := withoutWorkload([]string{"--workload", "all", "-seed", "3", "-workload=all", "--trace", "1"})
	if strings.Join(got, " ") != "-seed 3 --trace 1" {
		t.Fatalf("withoutWorkload = %q", got)
	}
}

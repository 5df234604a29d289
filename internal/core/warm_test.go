package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"specsampling/internal/cache"
	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// liveStates replays pbs with tools and returns each pinball's live-point,
// captured through the replay's warm-up hook.
func liveStates(t testing.TB, an *Analysis, pbs []*pinball.Pinball, tools Tools) []warmState {
	t.Helper()
	probes := make([]*probe, len(pbs))
	for i := range probes {
		var err error
		if probes[i], err = tools.probe(); err != nil {
			t.Fatal(err)
		}
	}
	states := make([]warmState, len(pbs))
	results := pinball.ReplayAll(tctx, pinball.SuiteJob{
		Program:   an.Prog,
		Pinballs:  pbs,
		MakeTools: func(i int) []pin.Tool { return probes[i].tools },
		Warmed:    func(i int) { states[i] = probes[i].warmState() },
	}, 2)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("replay %d: %v", i, r.Err)
		}
	}
	return states
}

// warmPinballs cuts the analysis's pinballs with the default warm-up and
// checks that the first has one.
func warmPinballs(t testing.TB, an *Analysis) []*pinball.Pinball {
	t.Helper()
	pbs, err := an.Pinballs(an.Result, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !pbs[0].HasWarmup {
		t.Fatalf("%s: first pinball has no warm-up", an.Prog.Name)
	}
	return pbs
}

func allTools(an *Analysis) Tools {
	hier, tcfg := an.CacheConfig(), an.TimingConfig()
	return Tools{Mix: true, Cache: &hier, CPI: &tcfg}
}

func mustMarshal(t testing.TB, a warmArtifact) []byte {
	t.Helper()
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeState decodes one region's compact form the way the artifact
// decoder reads each region, and fails on trailing bytes.
func decodeState(data []byte) (warmState, error) {
	d := warmDecoder{b: data}
	var s warmState
	d.state(&s)
	return s, d.end()
}

// FuzzWarmStateUnmarshal feeds arbitrary bytes to the live-point decoder,
// seeded with real warmed states. It must never panic, must allocate no
// more than a few words per input byte, and every encoding it accepts must
// re-encode to exactly the same bytes.
func FuzzWarmStateUnmarshal(f *testing.F) {
	an := analyzeBench(f, "505.mcf_r")
	pbs := warmPinballs(f, an)[:2]
	full := allTools(an)
	for _, tools := range []Tools{full, {Cache: full.Cache}, {CPI: full.CPI}} {
		for _, s := range liveStates(f, an, pbs, tools) {
			f.Add(s.appendBinary(nil))
		}
	}
	f.Add(warmState{}.appendBinary(nil))
	f.Add(warmState{cache: &cache.State{}}.appendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{4})
	f.Add([]byte{1, 0x80, 0x00})

	budget := func(n int) uint64 { return 16*uint64(n) + 4096 }
	f.Fuzz(func(t *testing.T, data []byte) {
		var s warmState
		var err error
		if got := minAlloc(func() { s, err = decodeState(data) }); got > budget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if again := s.appendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x but re-encodes as %x", data, again)
		}
	})
}

// minAlloc returns the fewest bytes any of three runs of decode allocated.
// runtime.MemStats.TotalAlloc counts every goroutine's allocations, and a
// fuzz worker runs others beside the fuzz function; they can only add to a
// run's delta, while decode's own allocation is the same each run, so the
// minimum is the one that bounds decode.
func minAlloc(decode func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		decode()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestWarmStateRejects checks that the decoder refuses truncated and
// malformed input, and that a stored artifact fails to decode unless every
// state fits its pinball and the tool configuration: the region count,
// which regions have warm-up, which tools are present, each level's tag
// count and each model's geometry.
func TestWarmStateRejects(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	pbs := warmPinballs(t, an)[:2]
	tools := allTools(an)
	states := liveStates(t, an, pbs, tools)

	enc := states[0].appendBinary(nil)
	if s, err := decodeState(enc); err != nil || !reflect.DeepEqual(s, states[0]) {
		t.Fatalf("round trip: %v", err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeState(enc[:n]); err == nil {
			t.Fatalf("accepted a truncation to %d of %d bytes", n, len(enc))
		}
	}
	for name, bad := range map[string][]byte{
		"a trailing byte":      append(enc[:len(enc):len(enc)], 0),
		"an unknown tool bit":  {4},
		"a non-minimal varint": {1, 0x80, 0x00},
	} {
		if _, err := decodeState(bad); err == nil {
			t.Errorf("accepted %s", name)
		}
	}

	decode := func(states []warmState, pbs []*pinball.Pinball, tools Tools) error {
		art := warmArtifact{pbs: pbs, tools: tools}
		return art.UnmarshalBinary(mustMarshal(t, warmArtifact{states: states}))
	}
	if err := decode(states, pbs, tools); err != nil {
		t.Fatalf("a matching artifact was refused: %v", err)
	}

	shortTags := states[0]
	c := *shortTags.cache
	c.Levels[3].Tags = c.Levels[3].Tags[1:]
	shortTags.cache = &c

	otherGeometry := states[0]
	wide := *otherGeometry.cpi
	wide.Branch.Gshare = append(wide.Branch.Gshare, 2)
	wide.Branch.Bimodal = append(wide.Branch.Bimodal, 2)
	wide.Branch.Chooser = append(wide.Branch.Chooser, 2)
	otherGeometry.cpi = &wide

	unscaled, err := cache.NewHierarchy(cache.TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	otherHierarchy := states[0]
	big := unscaled.Snapshot()
	otherHierarchy.cache = &big

	cacheOnly := states[0]
	cacheOnly.cpi = nil

	noWarmup := append([]*pinball.Pinball{stripWarmup(pbs[0])}, pbs[1:]...)
	for name, tc := range map[string]struct {
		states []warmState
		pbs    []*pinball.Pinball
	}{
		"wrong tag count":       {[]warmState{shortTags, states[1]}, pbs},
		"wrong predictor size":  {[]warmState{otherGeometry, states[1]}, pbs},
		"wrong hierarchy":       {[]warmState{otherHierarchy, states[1]}, pbs},
		"missing tool":          {[]warmState{cacheOnly, states[1]}, pbs},
		"wrong region count":    {states[:1], pbs},
		"empty under a warm-up": {[]warmState{{}, states[1]}, pbs},
		"state with no warm-up": {states, noWarmup},
	} {
		if err := decode(tc.states, tc.pbs, tools); err == nil {
			t.Errorf("%s: artifact accepted", name)
		}
	}
}

// TestWarmEntryDegradesToRecompute checks the live-point store path: a
// missing warm entry is computed and put; a corrupt one, and one that
// decodes but was stored for other tools, is quarantined, counted on
// store.corrupt, recomputed and rewritten; and every measurement equals
// the storeless one.
func TestWarmEntryDegradesToRecompute(t *testing.T) {
	spec, err := workload.ByName("505.mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(workload.ScaleSmall)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeStored(tctx, spec, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Analyze(tctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pbs := warmPinballs(t, an)
	hier := an.CacheConfig()
	tools := Tools{Cache: &hier}
	want, err := plain.Measure(tctx, pbs, tools)
	if err != nil {
		t.Fatal(err)
	}
	key := an.warmKey(pbs, tools)
	path := filepath.Join(dir, key.Kind, key.Bench+"-"+key.Digest()+".art")

	counters := func() [4]int64 {
		var out [4]int64
		for i, name := range []string{"store.hit", "store.miss", "store.corrupt", "store.write"} {
			out[i] = obs.GetCounter(name).Value()
		}
		return out
	}
	measure := func(step string, hit, miss, corrupt, write int64) {
		t.Helper()
		before := counters()
		got, err := an.Measure(tctx, pbs, tools)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: measurement differs from the storeless one", step)
		}
		after := counters()
		delta := [4]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}
		if delta != [4]int64{hit, miss, corrupt, write} {
			t.Errorf("%s: store hit/miss/corrupt/write moved by %v, want %v", step, delta, [4]int64{hit, miss, corrupt, write})
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: no warm entry after the measurement: %v", step, err)
		}
	}

	measure("missing", 0, 1, 0, 1)
	measure("stored", 1, 0, 0, 0)

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	measure("corrupt", 0, 1, 1, 1)

	tcfg := an.TimingConfig()
	other := liveStates(t, an, pbs, Tools{CPI: &tcfg})
	if err := st.Put(tctx, key, warmArtifact{states: other}); err != nil {
		t.Fatal(err)
	}
	measure("mismatched", 0, 1, 1, 1)
	measure("rewritten", 1, 0, 0, 0)
	// Both bad entries had the entry's name, so the second quarantine
	// replaced the first.
	if q := st.Quarantined(); len(q) != 1 || q[0] != filepath.Base(path) {
		t.Errorf("quarantined %v, want [%s]", q, filepath.Base(path))
	}
}

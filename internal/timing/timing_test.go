package timing

import (
	"reflect"
	"testing"

	"specsampling/internal/cache"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/program"
)

func testProgram(t testing.TB, ws uint64, jump uint32) *program.Program {
	t.Helper()
	specs := []program.PhaseSpec{
		{Blocks: 6, MinBlockLen: 4, MaxBlockLen: 10, Mix: [4]float64{0.5, 0.35, 0.14, 0.01},
			Pattern: program.MemPattern{Base: 1 << 22, WorkingSetBytes: ws, Stride: 8,
				SeqPermille: 500, StreamPermille: 50, StreamBase: 1 << 36, StreamBytes: 1 << 28},
			JumpPermille: jump, ShareBlocksWith: -1},
	}
	p, err := program.BuildProgram("timetest", 5, specs,
		[]program.Segment{{Phase: 0, Instrs: 60000}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t testing.TB, p *program.Program, cfg Config) Counters {
	t.Helper()
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := pin.NewEngine(p)
	if err := e.Attach(core); err != nil {
		t.Fatal(err)
	}
	e.RunToEnd()
	return core.Counters()
}

func TestTableIIIConfigMatchesPaper(t *testing.T) {
	cfg := TableIIIConfig()
	if cfg.FrequencyGHz != 3.4 {
		t.Errorf("frequency %v, Table III says 3.4 GHz", cfg.FrequencyGHz)
	}
	if cfg.ROBEntries != 168 {
		t.Errorf("ROB %d, Table III says 168", cfg.ROBEntries)
	}
	if cfg.BranchMissPenalty != 8 {
		t.Errorf("branch penalty %v, Table III says 8", cfg.BranchMissPenalty)
	}
	if cfg.Caches.L1D.SizeBytes != 32<<10 || cfg.Caches.L1D.Ways != 8 {
		t.Errorf("L1D %+v", cfg.Caches.L1D)
	}
	if cfg.Caches.L2.SizeBytes != 256<<10 || cfg.Caches.L3.SizeBytes != 8<<20 || cfg.Caches.L3.Ways != 16 {
		t.Errorf("L2/L3 %+v %+v", cfg.Caches.L2, cfg.Caches.L3)
	}
	if cfg.Caches.L1D.LineBytes != 64 {
		t.Errorf("line size %d, Table III says 64", cfg.Caches.L1D.LineBytes)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := TableIIIConfig()
	cfg.DispatchWidth = 0
	if _, err := NewCore(cfg); err == nil {
		t.Error("accepted zero dispatch width")
	}
	cfg = TableIIIConfig()
	cfg.MLP = 0
	if _, err := NewCore(cfg); err == nil {
		t.Error("accepted zero MLP")
	}
	cfg = TableIIIConfig()
	cfg.MemLatency = 0
	if _, err := NewCore(cfg); err == nil {
		t.Error("accepted zero memory latency")
	}
}

func TestCPIIsPlausible(t *testing.T) {
	c := run(t, testProgram(t, 64<<10, 40), TableIIIConfig())
	cpi := c.CPI()
	if cpi < 0.25 || cpi > 5 {
		t.Errorf("CPI = %v, outside the plausible range for an i7-class core", cpi)
	}
	if c.Instructions == 0 || c.Cycles <= 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestLargerWorkingSetHigherCPI(t *testing.T) {
	small := run(t, testProgram(t, 16<<10, 40), TableIIIConfig())
	large := run(t, testProgram(t, 16<<20, 40), TableIIIConfig())
	if large.CPI() <= small.CPI() {
		t.Errorf("16MB working set CPI %v <= 16kB working set CPI %v",
			large.CPI(), small.CPI())
	}
}

func TestIrregularControlFlowHigherCPI(t *testing.T) {
	regular := run(t, testProgram(t, 32<<10, 5), TableIIIConfig())
	irregular := run(t, testProgram(t, 32<<10, 300), TableIIIConfig())
	if irregular.CPI() <= regular.CPI() {
		t.Errorf("irregular control flow CPI %v <= regular CPI %v",
			irregular.CPI(), regular.CPI())
	}
	if irregular.BranchStats.Rate() <= regular.BranchStats.Rate() {
		t.Errorf("irregular misprediction rate %v <= regular %v",
			irregular.BranchStats.Rate(), regular.BranchStats.Rate())
	}
}

func TestDeterministic(t *testing.T) {
	p := testProgram(t, 128<<10, 60)
	a := run(t, p, TableIIIConfig())
	b := run(t, p, TableIIIConfig())
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Errorf("same program, different counters: %+v vs %+v", a, b)
	}
}

func TestWarmupAccountsNothing(t *testing.T) {
	p := testProgram(t, 64<<10, 40)
	core, err := NewCore(TableIIIConfig())
	if err != nil {
		t.Fatal(err)
	}
	core.SetWarmup(true)
	e := pin.NewEngine(p)
	if err := e.Attach(core); err != nil {
		t.Fatal(err)
	}
	e.Run(10000)
	c := core.Counters()
	if c.Instructions != 0 || c.Cycles != 0 {
		t.Errorf("warm-up accumulated counters: %+v", c)
	}
	// But microarchitectural state must have been learned.
	if core.Hierarchy().L1D.Stats().Accesses != 0 {
		t.Error("warm-up counted cache stats")
	}
	core.SetWarmup(false)
	e.Run(10000)
	if core.Counters().Instructions == 0 {
		t.Error("nothing measured after warm-up")
	}
}

func TestWarmupLowersColdStartCPI(t *testing.T) {
	// Replaying a region with warm-up must not yield a higher CPI than the
	// same region replayed cold (modulo noise, warm caches only help).
	p := testProgram(t, 1<<20, 40)
	exec := program.NewExecutor(p)
	exec.Run(20000, program.Hooks{})
	warm := exec.State()
	warmLen := exec.Run(8000, program.Hooks{})
	start := exec.State()

	cold := pinball.NewRegional("timetest", "small", 0, start, 4096, 1)
	coldCore, _ := NewCore(TableIIIConfig())
	if _, err := pinball.Replay(p, cold, coldCore); err != nil {
		t.Fatal(err)
	}

	warmPB := pinball.NewRegional("timetest", "small", 0, start, 4096, 1).WithWarmup(warm, warmLen)
	warmCore, _ := NewCore(TableIIIConfig())
	if _, err := pinball.Replay(p, warmPB, warmCore); err != nil {
		t.Fatal(err)
	}

	if warmCore.CPI() > coldCore.CPI() {
		t.Errorf("warmed CPI %v > cold CPI %v", warmCore.CPI(), coldCore.CPI())
	}
	if warmCore.Counters().Instructions != coldCore.Counters().Instructions {
		t.Error("warm-up changed the measured instruction count")
	}
}

func TestReset(t *testing.T) {
	p := testProgram(t, 64<<10, 40)
	core, _ := NewCore(TableIIIConfig())
	e := pin.NewEngine(p)
	if err := e.Attach(core); err != nil {
		t.Fatal(err)
	}
	e.Run(5000)
	core.Reset()
	c := core.Counters()
	if c.Instructions != 0 || c.Cycles != 0 {
		t.Errorf("Reset left counters: %+v", c)
	}
}

func TestCountersHelpers(t *testing.T) {
	var c Counters
	if c.CPI() != 0 {
		t.Error("zero counters CPI should be 0")
	}
	c = Counters{Instructions: 1000, Cycles: 1500}
	if c.CPI() != 1.5 {
		t.Errorf("CPI = %v", c.CPI())
	}
}

// TestRestoreContinuesIdentically checks that a core restored from a
// snapshot, at the same program position, accounts exactly what the core
// it was taken from does, and that a core of another geometry refuses the
// state.
func TestRestoreContinuesIdentically(t *testing.T) {
	p := testProgram(t, 256<<10, 40)
	cfg := ScaledConfig(TableIIIConfig(), cache.ScaleDivs{L1: 16, L2: 512, L3: 512})
	a, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea := pin.NewEngine(p)
	if err := ea.Attach(a); err != nil {
		t.Fatal(err)
	}
	a.SetWarmup(true)
	n := ea.Run(8000)
	a.SetWarmup(false)
	n += ea.Run(8000)
	snap := a.Snapshot()

	b, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	exec := program.NewExecutor(p)
	exec.Run(n, program.Hooks{})
	eb := pin.NewEngineAt(exec)
	if err := eb.Attach(b); err != nil {
		t.Fatal(err)
	}
	ea.Run(20000)
	eb.Run(20000)
	if a.Counters() != b.Counters() || !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Errorf("restored core diverged: %+v vs %+v", b.Counters(), a.Counters())
	}

	other, err := NewCore(TableIIIConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Error("an unscaled core accepted a scaled core's state")
	}
}

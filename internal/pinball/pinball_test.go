package pinball

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"specsampling/internal/isa"
	"specsampling/internal/pin"
	"specsampling/internal/pintool"
	"specsampling/internal/program"
)

func testProgram(t testing.TB) *program.Program {
	t.Helper()
	specs := []program.PhaseSpec{
		{Blocks: 5, MinBlockLen: 4, MaxBlockLen: 10, Mix: [4]float64{0.5, 0.3, 0.15, 0.05},
			Pattern: program.MemPattern{Base: 1 << 20, WorkingSetBytes: 64 << 10, Stride: 8,
				SeqPermille: 500, StreamPermille: 0},
			JumpPermille: 40, ShareBlocksWith: -1},
		{Blocks: 6, MinBlockLen: 4, MaxBlockLen: 10, Mix: [4]float64{0.6, 0.3, 0.1, 0},
			Pattern: program.MemPattern{Base: 32 << 20, WorkingSetBytes: 256 << 10, Stride: 16,
				SeqPermille: 300, StreamPermille: 0},
			JumpPermille: 90, ShareBlocksWith: -1},
	}
	p, err := program.BuildProgram("pbtest", 99, specs,
		program.UniformSchedule([]float64{0.6, 0.4}, 40000, 3))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// capture returns the executor state at instruction boundary near n.
func capture(t testing.TB, p *program.Program, n uint64) (program.State, uint64) {
	t.Helper()
	e := program.NewExecutor(p)
	ran := e.Run(n, program.Hooks{})
	return e.State(), ran
}

func TestRoundTrip(t *testing.T) {
	p := testProgram(t)
	st, _ := capture(t, p, 10000)
	pb := NewRegional("pbtest", "small", 3, st, 2048, 0.25)

	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != pb.Benchmark || got.Scale != pb.Scale || got.Kind != pb.Kind ||
		got.Region != pb.Region || got.Len != pb.Len || got.Weight != pb.Weight {
		t.Errorf("round trip changed fields: %+v vs %+v", got, pb)
	}
	if !got.Start.Equal(pb.Start) {
		t.Error("round trip changed state")
	}
	if got.HasWarmup {
		t.Error("warm-up appeared from nowhere")
	}
}

func TestRoundTripWithWarmup(t *testing.T) {
	p := testProgram(t)
	warm, ran := capture(t, p, 5000)
	e := program.NewExecutor(p)
	if err := e.Restore(warm); err != nil {
		t.Fatal(err)
	}
	more := e.Run(3000, program.Hooks{})
	start := e.State()

	pb := NewRegional("pbtest", "small", 0, start, 2048, 0.5).WithWarmup(warm, more)
	_ = ran

	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasWarmup || got.WarmupLen != more || !got.Warmup.Equal(warm) {
		t.Error("warm-up fields lost in round trip")
	}
}

func TestCorruptionDetected(t *testing.T) {
	p := testProgram(t)
	st, _ := capture(t, p, 1000)
	pb := NewRegional("pbtest", "small", 0, st, 512, 1)
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload byte.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(corrupted)); err == nil {
		t.Error("corrupted pinball accepted")
	}

	// Truncate.
	if _, err := Read(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated pinball accepted")
	}

	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	p := testProgram(t)
	st, _ := capture(t, p, 2000)
	pb := NewWhole(p, "small", p.TotalInstrs())
	_ = st
	path := filepath.Join(t.TempDir(), "whole.pb")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != Whole || got.Region != -1 || got.Benchmark != "pbtest" {
		t.Errorf("loaded pinball = %+v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.pb")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

func TestValidate(t *testing.T) {
	p := testProgram(t)
	st, _ := capture(t, p, 100)
	cases := []struct {
		name string
		pb   *Pinball
	}{
		{"empty benchmark", &Pinball{Len: 10, Weight: 1}},
		{"zero length", &Pinball{Benchmark: "x", Weight: 1}},
		{"regional without region", &Pinball{Benchmark: "x", Kind: Regional, Region: -1, Len: 10, Weight: 1}},
		{"bad weight", &Pinball{Benchmark: "x", Len: 10, Weight: 2}},
		{"warmup gap", func() *Pinball {
			pb := NewRegional("x", "small", 0, st, 10, 0.5)
			wrong := st.Clone()
			wrong.Instrs = st.Instrs + 5 // warm-up that ends past the start
			return pb.WithWarmup(wrong, 100)
		}()},
	}
	for _, c := range cases {
		if err := c.pb.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestKindString(t *testing.T) {
	if Whole.String() != "whole" || Regional.String() != "regional" {
		t.Error("kind names wrong")
	}
}

// The fundamental pinball property: a regional replay reproduces exactly the
// statistics of the corresponding region of the whole run.
func TestReplayMatchesWholeRunRegion(t *testing.T) {
	p := testProgram(t)

	// Whole run, collecting the mix of region [12000ish, +4096].
	e := program.NewExecutor(p)
	e.Run(12000, program.Hooks{})
	start := e.State()
	refMix := pintool.NewLdStMix()
	engine := pin.NewEngineAt(e)
	if err := engine.Attach(refMix); err != nil {
		t.Fatal(err)
	}
	regionLen := engine.Run(4096)

	pb := NewRegional("pbtest", "small", 0, start, regionLen, 0.3)
	gotMix := pintool.NewLdStMix()
	n, err := Replay(p, pb, gotMix)
	if err != nil {
		t.Fatal(err)
	}
	if n != regionLen {
		t.Errorf("replayed %d instructions, want %d", n, regionLen)
	}
	if gotMix.Mix != refMix.Mix {
		t.Errorf("replay mix %+v != whole-run region mix %+v", gotMix.Mix, refMix.Mix)
	}
}

func TestReplayRejectsWrongProgram(t *testing.T) {
	p := testProgram(t)
	st, _ := capture(t, p, 1000)
	pb := NewRegional("otherbench", "small", 0, st, 512, 1)
	if _, err := Replay(p, pb); err == nil {
		t.Error("replayed a foreign pinball")
	}
}

// warmProbe records how many instructions it saw in warm-up vs measurement.
type warmProbe struct {
	warm         bool
	warmInstrs   uint64
	measedInstrs uint64
}

func (*warmProbe) Name() string { return "warmprobe" }
func (w *warmProbe) OnBlock(b *isa.Block, _ int) {
	if w.warm {
		w.warmInstrs += uint64(b.Len())
	} else {
		w.measedInstrs += uint64(b.Len())
	}
}
func (w *warmProbe) SetWarmup(on bool) { w.warm = on }

// coldProbe is not Warmable and must never see warm-up instructions.
type coldProbe struct{ instrs uint64 }

func (*coldProbe) Name() string { return "coldprobe" }
func (c *coldProbe) OnBlock(b *isa.Block, _ int) {
	c.instrs += uint64(b.Len())
}

func TestReplayWarmupRouting(t *testing.T) {
	p := testProgram(t)
	e := program.NewExecutor(p)
	e.Run(6000, program.Hooks{})
	warm := e.State()
	warmLen := e.Run(2000, program.Hooks{})
	start := e.State()

	pb := NewRegional("pbtest", "small", 0, start, 1024, 0.4).WithWarmup(warm, warmLen)
	wp := &warmProbe{}
	cp := &coldProbe{}
	n, err := Replay(p, pb, wp, cp)
	if err != nil {
		t.Fatal(err)
	}
	if wp.warmInstrs < warmLen {
		t.Errorf("warmable tool saw %d warm-up instructions, want >= %d", wp.warmInstrs, warmLen)
	}
	if wp.measedInstrs != n {
		t.Errorf("warmable tool measured %d, replay reports %d", wp.measedInstrs, n)
	}
	if cp.instrs != n {
		t.Errorf("non-warmable tool saw %d instructions, want exactly the %d measured", cp.instrs, n)
	}
}

func TestReplayAllParallelMatchesSequential(t *testing.T) {
	p := testProgram(t)

	// Build 6 regional pinballs along the execution.
	var pbs []*Pinball
	e := program.NewExecutor(p)
	for i := 0; i < 6; i++ {
		start := e.State()
		n := e.Run(3000, program.Hooks{})
		if n == 0 {
			break
		}
		pbs = append(pbs, NewRegional("pbtest", "small", i, start, n, 1.0/6))
	}

	mixes := make([]*pintool.LdStMix, len(pbs))
	results := ReplayAll(context.Background(), SuiteJob{Program: p, Pinballs: pbs, MakeTools: func(i int) []pin.Tool {
		mixes[i] = pintool.NewLdStMix()
		return []pin.Tool{mixes[i]}
	}}, 4)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("replay %d: %v", i, res.Err)
		}
		// Sequential reference.
		ref := pintool.NewLdStMix()
		if _, err := Replay(p, pbs[i], ref); err != nil {
			t.Fatal(err)
		}
		if mixes[i].Mix != ref.Mix {
			t.Errorf("parallel replay %d mix differs from sequential", i)
		}
	}
}

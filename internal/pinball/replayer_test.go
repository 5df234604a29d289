package pinball

import (
	"context"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/pintool"
	"specsampling/internal/program"
)

// testProgram2 is a second, distinct benchmark for cross-program suite
// replay tests.
func testProgram2(t testing.TB) *program.Program {
	t.Helper()
	specs := []program.PhaseSpec{
		{Blocks: 4, MinBlockLen: 3, MaxBlockLen: 8, Mix: [4]float64{0.4, 0.4, 0.15, 0.05},
			Pattern: program.MemPattern{Base: 2 << 20, WorkingSetBytes: 128 << 10, Stride: 8,
				SeqPermille: 400, StreamPermille: 0},
			JumpPermille: 60, ShareBlocksWith: -1},
	}
	p, err := program.BuildProgram("pbtest2", 123, specs,
		program.UniformSchedule([]float64{1}, 30000, 2))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// regionals cuts count regional pinballs of roughly length instructions
// along p's execution.
func regionals(t testing.TB, p *program.Program, count int, length uint64) []*Pinball {
	t.Helper()
	var pbs []*Pinball
	e := program.NewExecutor(p)
	for i := 0; i < count; i++ {
		start := e.State()
		n := e.Run(length, program.Hooks{})
		if n == 0 {
			break
		}
		pbs = append(pbs, NewRegional(p.Name, "small", i, start, n, 1.0/float64(count)))
	}
	if len(pbs) == 0 {
		t.Fatal("no pinballs cut")
	}
	return pbs
}

// withWarmupBefore rebuilds pb with a warm-up checkpoint captured roughly
// back instructions before the region start.
func withWarmupBefore(t testing.TB, p *program.Program, pb *Pinball, back uint64) *Pinball {
	t.Helper()
	target := pb.Start.Instrs
	if target < back {
		back = target
	}
	e := program.NewExecutor(p)
	if target > back {
		e.Run(target-back, program.Hooks{})
	}
	warm := e.State()
	return NewRegional(p.Name, pb.Scale, pb.Region, pb.Start, pb.Len, pb.Weight).
		WithWarmup(warm, target-warm.Instrs)
}

// TestReplayerReusedMatchesFresh pins the whole point of the Replayer: one
// long-lived executor/engine pair replaying many pinballs — including
// warm-up-carrying ones, in arbitrary order — must observe exactly what a
// fresh Replay of each pinball observes.
func TestReplayerReusedMatchesFresh(t *testing.T) {
	p := testProgram(t)
	pbs := regionals(t, p, 5, 3000)

	// Give some pinballs warm-up checkpoints so the reused warm engine and
	// warmables buffer are exercised too.
	pbs[2] = withWarmupBefore(t, p, pbs[2], 1500)
	pbs[4] = withWarmupBefore(t, p, pbs[4], 1500)

	r := NewReplayer(p)
	// Deliberately shuffled order: replay state must not leak across calls.
	order := []int{3, 0, 4, 2, 1, 2, 0}
	for _, i := range order {
		got := pintool.NewLdStMix()
		gotN, err := r.Replay(pbs[i], got)
		if err != nil {
			t.Fatalf("reused replay %d: %v", i, err)
		}
		want := pintool.NewLdStMix()
		wantN, err := Replay(p, pbs[i], want)
		if err != nil {
			t.Fatalf("fresh replay %d: %v", i, err)
		}
		if gotN != wantN {
			t.Errorf("pinball %d: reused replayer ran %d instrs, fresh ran %d", i, gotN, wantN)
		}
		if got.Mix != want.Mix {
			t.Errorf("pinball %d: reused replayer mix %+v != fresh %+v", i, got.Mix, want.Mix)
		}
	}
}

// TestReplayerRejectsWrongProgram mirrors the Replay test through the
// reusable path.
func TestReplayerRejectsWrongProgram(t *testing.T) {
	p := testProgram(t)
	other := testProgram2(t)
	pbs := regionals(t, other, 1, 1000)
	r := NewReplayer(p)
	if _, err := r.Replay(pbs[0]); err == nil {
		t.Error("replayer accepted a foreign pinball")
	}
}

// TestReplaySuiteMatchesReplayAll runs two benchmarks' pinballs through one
// flat suite replay and checks every observation against the per-benchmark
// parallel path.
func TestReplaySuiteMatchesReplayAll(t *testing.T) {
	p1, p2 := testProgram(t), testProgram2(t)
	pbs1 := regionals(t, p1, 4, 3000)
	pbs2 := regionals(t, p2, 3, 4000)

	suiteMixes1 := make([]*pintool.LdStMix, len(pbs1))
	suiteMixes2 := make([]*pintool.LdStMix, len(pbs2))
	jobs := []SuiteJob{
		{Program: p1, Pinballs: pbs1, MakeTools: func(i int) []pin.Tool {
			suiteMixes1[i] = pintool.NewLdStMix()
			return []pin.Tool{suiteMixes1[i]}
		}},
		{Program: p2, Pinballs: pbs2, MakeTools: func(i int) []pin.Tool {
			suiteMixes2[i] = pintool.NewLdStMix()
			return []pin.Tool{suiteMixes2[i]}
		}},
	}
	suite := ReplaySuite(context.Background(), jobs, 3)
	if len(suite) != 2 || len(suite[0]) != len(pbs1) || len(suite[1]) != len(pbs2) {
		t.Fatalf("suite result shape [%d][%d,%d], want [2][%d,%d]",
			len(suite), len(suite[0]), len(suite[1]), len(pbs1), len(pbs2))
	}

	for j, want := range [][]*Pinball{pbs1, pbs2} {
		p := []*program.Program{p1, p2}[j]
		mixes := [][]*pintool.LdStMix{suiteMixes1, suiteMixes2}[j]
		refMixes := make([]*pintool.LdStMix, len(want))
		ref := ReplayAll(context.Background(), SuiteJob{Program: p, Pinballs: want, MakeTools: func(i int) []pin.Tool {
			refMixes[i] = pintool.NewLdStMix()
			return []pin.Tool{refMixes[i]}
		}}, 2)
		for i := range want {
			if suite[j][i].Err != nil {
				t.Fatalf("suite job %d pinball %d: %v", j, i, suite[j][i].Err)
			}
			if suite[j][i].Executed != ref[i].Executed {
				t.Errorf("job %d pinball %d: suite executed %d, ReplayAll %d",
					j, i, suite[j][i].Executed, ref[i].Executed)
			}
			if mixes[i].Mix != refMixes[i].Mix {
				t.Errorf("job %d pinball %d: suite mix differs from ReplayAll", j, i)
			}
		}
	}
}

// TestReplaySuiteCancelled checks the not-dispatched slots carry ctx.Err().
func TestReplaySuiteCancelled(t *testing.T) {
	p := testProgram(t)
	pbs := regionals(t, p, 3, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := ReplaySuite(ctx, []SuiteJob{{Program: p, Pinballs: pbs,
		MakeTools: func(int) []pin.Tool { return nil }}}, 2)
	for i, res := range out[0] {
		if res.Err == nil {
			t.Errorf("pinball %d: expected cancellation error", i)
		}
	}
}

// TestReplayerReplayAllocs is the satellite allocation-regression test for
// the replay inner loop: with tracing off and tools reused, a warm Replayer
// performs zero heap allocations per replayed pinball — restore, reset,
// attach and run all work out of long-lived buffers.
func TestReplayerReplayAllocs(t *testing.T) {
	if obs.Enabled() {
		t.Skip("tracing active; allocation counts include tracer work")
	}
	p := testProgram(t)
	pbs := regionals(t, p, 2, 3000)
	r := NewReplayer(p)
	mix := pintool.NewLdStMix()
	tools := []pin.Tool{mix}

	plain := pbs[0]
	if got := testing.AllocsPerRun(50, func() {
		if _, err := r.Replay(plain, tools...); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Replayer.Replay allocates %.1f objects per plain replay, want 0", got)
	}

	// The warm-up path must be allocation-free too (warm engine + warmables
	// buffer reuse).
	warmed := withWarmupBefore(t, p, pbs[1], 1000)
	probe := &warmProbe{}
	warmTools := []pin.Tool{probe}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := r.Replay(warmed, warmTools...); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Replayer.Replay allocates %.1f objects per warm-up replay, want 0", got)
	}
}

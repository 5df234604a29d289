package pinball

import (
	"context"
	"fmt"

	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/program"
	"specsampling/internal/sched"
)

var replayCounter = obs.GetCounter("pinball.replayed")

// Warmable is implemented by tools whose microarchitectural state can be
// warmed without counting statistics (cache simulators, timing models). If
// a pinball carries a warm-up checkpoint, Replay drives Warmable tools
// through the warm-up region with warm-up mode enabled; tools that are not
// Warmable do not observe the warm-up at all.
type Warmable interface {
	SetWarmup(on bool)
}

// Replayer replays pinballs of one program through reusable machinery: one
// executor and two engines (warm-up and measurement) that live as long as
// the Replayer. Restoring a checkpoint, attaching tools and running all
// reuse the same buffers, so the replay hot loop — Replay called once per
// regional pinball, thousands of times per suite analysis — performs no
// per-replay allocations beyond what the caller's tools do (pinned by
// TestReplayerReplayAllocs). A Replayer is not safe for concurrent use;
// ReplayAll shards one per worker.
type Replayer struct {
	prog      *program.Program
	exec      *program.Executor
	warm      *pin.Engine
	meas      *pin.Engine
	warmables []Warmable
}

// NewReplayer returns a replayer for pinballs captured from p.
func NewReplayer(p *program.Program) *Replayer {
	exec := program.NewExecutor(p)
	return &Replayer{
		prog: p,
		exec: exec,
		warm: pin.NewEngineAt(exec),
		meas: pin.NewEngineAt(exec),
	}
}

// Replay executes one pinball with the given tools attached and returns the
// number of measured (non-warm-up) instructions executed. Tools are stateful
// and belong to this replay; the Replayer's own state is fully re-restored
// from the pinball, so replay order does not affect results.
func (r *Replayer) Replay(pb *Pinball, tools ...pin.Tool) (uint64, error) {
	if err := pb.Validate(); err != nil {
		return 0, err
	}
	if r.prog.Name != pb.Benchmark {
		return 0, fmt.Errorf("pinball: replaying %q checkpoint on program %q", pb.Benchmark, r.prog.Name)
	}

	if pb.HasWarmup {
		if err := r.exec.Restore(pb.Warmup); err != nil {
			return 0, fmt.Errorf("pinball: restore warm-up state: %w", err)
		}
		r.warm.Reset()
		r.warmables = r.warmables[:0]
		for _, t := range tools {
			w, ok := t.(Warmable)
			if !ok {
				continue
			}
			if err := r.warm.Attach(t); err != nil {
				return 0, err
			}
			r.warmables = append(r.warmables, w)
		}
		for _, w := range r.warmables {
			w.SetWarmup(true)
		}
		r.warm.Run(pb.WarmupLen)
		for _, w := range r.warmables {
			w.SetWarmup(false)
		}
		// The warm-up run stops on a block boundary, which may overshoot
		// the region start slightly; restore the exact region state so the
		// measured stream is bit-identical to the captured region.
		// (Microarchitectural warm-up state persists in the tools.)
	}

	if err := r.exec.Restore(pb.Start); err != nil {
		return 0, fmt.Errorf("pinball: restore start state: %w", err)
	}
	r.meas.Reset()
	for _, t := range tools {
		if err := r.meas.Attach(t); err != nil {
			return 0, err
		}
	}
	return r.meas.Run(pb.Len), nil
}

// Replay executes a pinball against its program with the given tools
// attached and returns the number of measured (non-warm-up) instructions
// executed. The program must be the same benchmark (same name and phase
// count) the pinball was captured from. One-shot convenience over Replayer;
// batch callers should hold a Replayer (or use ReplayAll) to amortise the
// executor and engine setup.
func Replay(p *program.Program, pb *Pinball, tools ...pin.Tool) (uint64, error) {
	return NewReplayer(p).Replay(pb, tools...)
}

// ReplayResult pairs a pinball with what a parallel replay observed.
type ReplayResult struct {
	// Pinball is the replayed checkpoint.
	Pinball *Pinball
	// Executed is the measured instruction count.
	Executed uint64
	// Err is the per-pinball failure, if any.
	Err error
}

// ReplayAll replays a set of pinballs in parallel — the paper notes that
// regional pinballs are independent and "are executed in parallel to save
// time". makeTools is called once per pinball to produce that replay's
// private tool set (tools are stateful and must not be shared); it receives
// the pinball's index in pbs. Results preserve input order. workers <= 0
// uses GOMAXPROCS. It is ReplaySuite over one job, traced as one "replay"
// span per benchmark.
//
// If ctx is cancelled mid-run, pinballs not yet dispatched are returned
// with Err set to ctx.Err(); already-running replays complete normally.
func ReplayAll(ctx context.Context, p *program.Program, pbs []*Pinball, workers int, makeTools func(i int) []pin.Tool) []ReplayResult {
	ctx, span := obs.Start(ctx, "replay",
		obs.String("bench", p.Name), obs.Int("pinballs", len(pbs)))
	defer span.End()
	return replayJobs(ctx, []SuiteJob{{Program: p, Pinballs: pbs, MakeTools: makeTools}}, workers)[0]
}

// SuiteJob is one benchmark's share of a whole-suite replay: its program,
// its regional pinballs, and the per-pinball tool factory (same contract as
// ReplayAll's makeTools).
type SuiteJob struct {
	Program   *program.Program
	Pinballs  []*Pinball
	MakeTools func(i int) []pin.Tool
}

// ReplaySuite replays every job's pinballs across one shared worker pool —
// whole-suite regional replay as a single flat work list, rather than
// per-benchmark fan-out that leaves workers idle at each benchmark's tail.
// Results are indexed [job][pinball], preserving input order. Each worker
// keeps one Replayer per program it encounters, so the per-pinball cost is
// restore + run with no executor or engine construction in the loop.
// workers <= 0 uses GOMAXPROCS.
//
// If ctx is cancelled mid-run, pinballs not yet dispatched carry ctx.Err(),
// exactly as in ReplayAll.
func ReplaySuite(ctx context.Context, jobs []SuiteJob, workers int) [][]ReplayResult {
	total := 0
	for _, j := range jobs {
		total += len(j.Pinballs)
	}
	ctx, span := obs.Start(ctx, "replay.suite",
		obs.Int("jobs", len(jobs)), obs.Int("pinballs", total))
	defer span.End()
	return replayJobs(ctx, jobs, workers)
}

// replayJobs is the one sharded replay loop behind ReplayAll and
// ReplaySuite.
func replayJobs(ctx context.Context, jobs []SuiteJob, workers int) [][]ReplayResult {
	results := make([][]ReplayResult, len(jobs))
	ran := make([][]bool, len(jobs))
	// Flat index -> (job, local pinball index), in input order.
	var jobOf, locOf []int
	for j, job := range jobs {
		results[j] = make([]ReplayResult, len(job.Pinballs))
		ran[j] = make([]bool, len(job.Pinballs))
		for i := range job.Pinballs {
			jobOf = append(jobOf, j)
			locOf = append(locOf, i)
		}
	}

	replayers := make([][]*Replayer, sched.Workers(workers))
	err := sched.ForEachSharded(ctx, workers, len(jobOf), func(w, flat int) error {
		j, i := jobOf[flat], locOf[flat]
		job := &jobs[j]
		if replayers[w] == nil {
			replayers[w] = make([]*Replayer, len(jobs))
		}
		r := replayers[w][j]
		if r == nil {
			r = NewReplayer(job.Program)
			replayers[w][j] = r
		}
		tools := job.MakeTools(i)
		n, err := r.Replay(job.Pinballs[i], tools...)
		results[j][i] = ReplayResult{Pinball: job.Pinballs[i], Executed: n, Err: err}
		ran[j][i] = true
		replayCounter.Add(1)
		return nil
	})
	if err != nil {
		for j := range results {
			for i := range results[j] {
				if !ran[j][i] {
					results[j][i] = ReplayResult{Pinball: jobs[j].Pinballs[i], Err: err}
				}
			}
		}
	}
	return results
}

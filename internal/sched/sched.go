// Package sched is the deterministic graph-level scheduler: it runs one
// resumable tuner session per extracted task (tuner.Opener) through a
// single round driver. Each round a budget policy grants tasks
// measurements, the granted tasks step — up to TaskConcurrency of them on
// worker goroutines, while each session's planned batches still run on the
// shared measurement pool — and a single-goroutine boundary finalizes
// finished tasks, publishes their samples to the transfer history and
// captures checkpoints.
//
// # Task orders
//
// The options select one of two task orders for that driver:
//
//   - Sequential order (TaskConcurrency <= 1 with the uniform policy): each
//     round grants one plan to the lowest-index live task, so tasks tune one
//     after another, each warm-starting from every earlier task's samples —
//     the node-wise pipeline, bit-identical to the pre-scheduler one.
//   - Round order (TaskConcurrency > 1, or the adaptive policy): every live
//     task may be granted work each round, and the granted tasks step
//     concurrently.
//
// A task starts at its first grant: OnTaskStart fires and its session
// opens.
//
// # Determinism model
//
// Results are a pure function of the specs, the policy, and the backend
// seeds — never of timing:
//
//   - Sessions are self-contained: all search randomness is drawn from the
//     per-task seed, and seeded backends derive measurement noise from
//     (seed, config), so a task's sample stream does not depend on when its
//     steps run relative to other tasks'.
//   - Round structure is computed single-threaded at round boundaries from
//     the sessions' measured counts and best values, which themselves are
//     schedule-independent. TaskConcurrency therefore only changes how many
//     tasks' step work runs in parallel, not what any task measures.
//   - Completed tasks publish to the master transfer-learning history at
//     round boundaries, in task-index order. In the round order every live
//     task reads a per-task view of it, refreshed at the boundaries where
//     it grew, so cross-task warm starts see the same history regardless
//     of which goroutine finished first.
//
// Consequently outcomes are bit-identical across every Workers value and
// every TaskConcurrency value for a given task order. The round order's
// transfer warm starts differ from the sequential order's only in snapshot
// granularity.
//
// Unseeded backends draw noise from one shared stream, so concurrent task
// stepping would interleave it nondeterministically; the scheduler degrades
// their execution to one task at a time (round structure is unaffected).
package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/par"
	"repro/internal/transfer"
	"repro/internal/tuner"
)

// Spec is one task to schedule: the tuning problem plus its fully prepared
// per-task options (seed already derived, resume samples attached, observer
// chained, Transfer pointing at the run's master history).
type Spec struct {
	Task *tuner.Task
	Opts tuner.Options
}

// Outcome is the completion record of one task.
type Outcome struct {
	// Index is the task's position in the spec list.
	Index int
	Task  *tuner.Task
	// Result is what the equivalent Tune call would have returned.
	Result tuner.Result
	// Err is the task's non-fatal error (a per-task deadline expiry whose
	// partial search still found a deployable best). Fatal errors abort Run
	// instead and are reported as a *TaskError.
	Err error
	// Elapsed is the wall clock spent stepping this task's session.
	Elapsed time.Duration
	// Rounds is how many scheduler rounds the task was stepped in, in
	// either task order.
	Rounds int
}

// Options configures a scheduler run.
type Options struct {
	// TaskConcurrency is how many tasks advance concurrently within a
	// round. <= 1 with the uniform policy selects the sequential task order
	// (the exact legacy pipeline); anything else runs the round order. The
	// value only controls execution parallelism within an order — outcomes
	// are identical for every value above 1.
	TaskConcurrency int
	// Policy allocates the per-round measurement budget; nil means
	// UniformPolicy.
	Policy Policy
	// TaskDeadline bounds each task's search wall clock (zero = none). The
	// deadline context starts at the task's first step.
	TaskDeadline time.Duration
	// OnTaskStart, when non-nil, is called once per task (1-based index)
	// when the task starts, at its first grant: in spec order, and in the
	// sequential order only after the previous task's OnTaskDone.
	OnTaskStart func(taskIdx, taskTotal int, name string)
	// OnTaskDone, when non-nil, receives each task's outcome the moment it
	// is finalized, at the round boundary after its last step (in
	// task-index order within a boundary). It is invoked from the driver
	// goroutine, never concurrently.
	OnTaskDone func(Outcome)
	// OnCheckpoint, when non-nil, receives the run's serializable state at
	// round boundaries (see Checkpoint). It is invoked from the driver
	// goroutine, never concurrently with stepping, and the checkpoint is
	// fully detached — the callback may serialize it at leisure. A session
	// that cannot snapshot aborts the run with a *TaskError the first time
	// a checkpoint is due.
	OnCheckpoint func(*Checkpoint)
	// CheckpointEvery is the minimum number of new measurements between
	// checkpoints; boundaries reached earlier are skipped. 0 captures at
	// every boundary. The run-completing boundary always captures, so the
	// final checkpoint of a finished run has every task finalized.
	CheckpointEvery int
	// Resume, when non-nil, continues a previous run from its checkpoint
	// instead of starting fresh. The caller supplies the same specs,
	// backend, policy, and concurrency it originally ran with — with fresh
	// (empty) transfer histories, which resume repopulates from the
	// checkpoint — and the continued run's outcomes are bit-identical to
	// the uninterrupted run's. Callbacks fire only for events after the
	// checkpoint; outcomes restored from it are returned but not re-fired
	// through OnTaskDone. Per-task deadlines restart at the first
	// post-resume step.
	Resume *Checkpoint
}

// TaskError reports the fatal failure of one task, aborting the run.
type TaskError struct {
	TaskName string
	Index    int
	Err      error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("sched: task %s: %v", e.TaskName, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// fatal mirrors the pipeline's task-error tolerance: a per-task deadline
// expiry that still produced a deployable best is survivable — the best
// found within the budgeted time is deployed — while a parent cancellation,
// any other error, or an empty-handed task aborts the run.
func fatal(ctx context.Context, res tuner.Result, err error) bool {
	return err != nil && (ctx.Err() != nil || !errors.Is(err, context.DeadlineExceeded) || !res.Found)
}

// taskRun is the driver's per-task state. Fields written by worker
// goroutines (done, elapsed, rounds, cancel) are only read by the driver
// goroutine after the round barrier; the task's deadline context itself
// lives in a slice local to Run (contexts are call-scoped).
type taskRun struct {
	spec    Spec
	sess    tuner.Session     // nil until the task starts, and again once it is finalized
	master  *transfer.History // the spec's shared history, nil when transfer is off
	view    *transfer.History // round-order snapshot the session reads; nil in the sequential order
	goal    int               // measured count this round's grant steps toward
	cancel  context.CancelFunc
	done    bool // session reported done
	elapsed time.Duration
	rounds  int
}

// Run tunes every spec and returns the outcomes in spec order. On a fatal
// task failure it returns the outcomes finalized so far plus a *TaskError
// (wrapping the task's tuning error); a parent cancellation returns them
// with an error wrapping ctx.Err(). The remaining tasks are not tuned.
func Run(ctx context.Context, tn tuner.Opener, b backend.Backend, specs []Spec, opts Options) ([]Outcome, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	s := newSchedule(specs, opts)
	conc := s.conc
	if !b.Seeded() {
		// One shared noise stream: round structure stays policy-driven but
		// step execution must be serial (and is then deterministic, since
		// rounds visit tasks in index order).
		conc = 1
	}
	runs := make([]taskRun, len(specs))
	for i, sp := range specs {
		runs[i] = taskRun{spec: sp, master: sp.Opts.Transfer}
	}
	defer func() {
		for i := range runs {
			if runs[i].cancel != nil {
				runs[i].cancel()
			}
		}
	}()
	outs := make([]Outcome, len(specs))
	finalized := 0
	var published []int // indices in transfer-publication order

	// open starts task i's session, or restores it from st. Only a fresh
	// start announces the task: a restored one did so before the
	// checkpoint. In the round order the session reads a transfer view
	// cloned from the master history; the sequential order's one live task
	// reads, and publishes to, the master itself.
	open := func(i int, st *tuner.SessionState) error {
		tr := &runs[i]
		task := tr.spec.Task
		nopts := tr.spec.Opts.Normalized()
		nopts.Budget = s.caps[i]
		if tr.master != nil && s.driver == DriverRounds {
			tr.view = tr.master.Clone()
			nopts.Transfer = tr.view
		}
		var err error
		if st != nil {
			tr.sess, err = tn.Restore(ctx, task, b, nopts, *st)
		} else {
			if opts.OnTaskStart != nil {
				opts.OnTaskStart(i+1, len(specs), task.Name)
			}
			tr.sess, err = tn.Open(ctx, task, b, nopts)
		}
		if err != nil {
			return &TaskError{TaskName: task.Name, Index: i, Err: err}
		}
		return nil
	}

	firstRound := 0
	if cp := opts.Resume; cp != nil {
		if err := cp.validate(s.driver, specs); err != nil {
			return nil, err
		}
		// Re-enter the loop at the checkpointed boundary: the boundary code
		// is idempotent for already-finalized tasks, and policies see the
		// same round numbers the uninterrupted run fed them.
		firstRound = cp.Round
		for i, tc := range cp.Tasks {
			st := &s.states[i]
			runs[i].rounds, runs[i].elapsed = tc.Rounds, time.Duration(tc.ElapsedNS)
			st.PrevMeasured, st.PrevBest = tc.PrevMeasured, tc.PrevBest
			if tc.Outcome == nil {
				continue
			}
			out, err := tc.restoreOutcome(specs[i].Task)
			if err != nil {
				return nil, err
			}
			outs[i] = out
			st.Done, st.Measured = true, out.Result.Measurements
			if out.Result.Found {
				st.Best = out.Result.Best.GFLOPS
			}
			finalized++
		}
		// Replay transfer publications into the caller's fresh master
		// histories in the original order, then restore the tasks caught
		// mid-run so the first boundary sees their measured counts. Their
		// sessions read the rebuilt master (or a clone of it), which holds
		// what the original sessions read after the last refresh.
		for _, idx := range cp.Published {
			if idx < 0 || idx >= len(runs) || outs[idx].Task == nil {
				return nil, fmt.Errorf("sched: resume: published task %d is not finalized", idx)
			}
			if tr := &runs[idx]; tr.master != nil && len(outs[idx].Result.Samples) > 0 {
				tr.master.Add(tr.spec.Task.Name, tr.spec.Task.Workload.Op, outs[idx].Result.Samples)
			}
			published = append(published, idx)
		}
		for i, tc := range cp.Tasks {
			if tc.Outcome == nil && tc.Session != nil {
				if err := open(i, tc.Session); err != nil {
					return nil, err
				}
			}
		}
	}

	// Per-task stepping contexts (parent ctx, optionally under the task
	// deadline), created lazily at a task's first step so the deadline clock
	// starts when the task does (and restarts there on resume). Each slot is
	// touched by one worker per round and rounds are barriers, so plain
	// access is safe.
	tctxs := make([]context.Context, len(specs))
	var work []int // task indices granted work this round, reused
	// step advances one granted task toward its goal; sessions are
	// single-goroutine but distinct, so work items run concurrently. A
	// granted task always takes at least one step, so a session at its cap
	// reports done rather than stalling forever.
	step := func(j int) {
		i := work[j]
		tr := &runs[i]
		start := time.Now() //lint:ignore walltime Outcome.Elapsed observability: per-task timing is reported, never scheduled on
		if tctxs[i] == nil {
			tctxs[i] = ctx
			if opts.TaskDeadline > 0 {
				tctxs[i], tr.cancel = context.WithTimeout(ctx, opts.TaskDeadline)
			}
		}
		for {
			if done, _ := tr.sess.Step(tctxs[i]); done {
				tr.done = true
				break
			}
			if tr.sess.Measured() >= tr.goal {
				break
			}
		}
		tr.elapsed += time.Since(start) //lint:ignore walltime Outcome.Elapsed observability: accumulate-only
		tr.rounds++
	}

	lastCp := 0 // totalMeasured at the last captured checkpoint
	for round := firstRound; ; round++ {
		// A parent cancellation aborts the whole run, like the legacy
		// pipeline. Sessions cancelled mid-round latch the ctx error and are
		// reported as a fatal TaskError below instead.
		if err := ctx.Err(); err != nil {
			return doneOutcomes(outs), fmt.Errorf("sched: run aborted: %w", err)
		}
		// ---- Round boundary (single goroutine) --------------------------
		for i := range runs {
			if st := &s.states[i]; runs[i].sess != nil && !st.Done {
				st.Measured = runs[i].sess.Measured()
				st.Best, _ = runs[i].sess.BestGFLOPS()
			}
		}
		totalMeasured := s.measured()
		publishedBefore := len(published)
		for i := range runs {
			tr := &runs[i]
			// A task that has not started waits for its first grant.
			if tr.sess == nil || s.states[i].Done || !tr.done && !s.exhausted(i, totalMeasured) {
				continue
			}
			res, rerr := tr.sess.Result()
			s.states[i].Done = true
			finalized++
			if tr.cancel != nil {
				tr.cancel()
				tr.cancel = nil
			}
			if fatal(ctx, res, rerr) {
				return doneOutcomes(outs), &TaskError{TaskName: tr.spec.Task.Name, Index: i, Err: rerr}
			}
			// A round-order session published to its own view, which is now
			// discarded, so the same samples go to the master here; a
			// sequential-order session published to the master itself.
			// Record the order so resume can replay the Adds.
			if tr.master != nil && len(res.Samples) > 0 {
				if tr.view != nil {
					tr.master.Add(tr.spec.Task.Name, tr.spec.Task.Workload.Op, res.Samples)
				}
				published = append(published, i)
			}
			// Release the finished session (surrogate models, search state)
			// now rather than when the run ends.
			tr.sess, tr.view = nil, nil
			outs[i] = Outcome{Index: i, Task: tr.spec.Task, Result: res, Err: rerr,
				Elapsed: tr.elapsed, Rounds: tr.rounds}
			if opts.OnTaskDone != nil {
				opts.OnTaskDone(outs[i])
			}
		}
		// Views only go stale when the master grew.
		if len(published) > publishedBefore {
			for i := range runs {
				if tr := &runs[i]; tr.view != nil && !s.states[i].Done {
					tr.view.CopyFrom(tr.master)
				}
			}
		}
		// The checkpoint is captured after finalization and view refresh,
		// before allocation: resume re-enters this boundary, skips the
		// already-finalized tasks, and re-runs the same allocation.
		if opts.OnCheckpoint != nil && (finalized == len(specs) || totalMeasured-lastCp >= opts.CheckpointEvery) {
			cp, err := s.checkpoint(round, runs, outs, published)
			if err != nil {
				return doneOutcomes(outs), err
			}
			lastCp = totalMeasured
			opts.OnCheckpoint(cp)
		}
		if finalized == len(specs) {
			return outs, nil
		}

		// ---- Allocation -------------------------------------------------
		work = work[:0]
		for _, g := range s.allocate(round, totalMeasured) {
			if runs[g.idx].sess == nil {
				if err := open(g.idx, nil); err != nil {
					return doneOutcomes(outs), err
				}
			}
			runs[g.idx].goal = s.states[g.idx].Measured + g.n
			work = append(work, g.idx)
		}

		// ---- Execution --------------------------------------------------
		par.For(len(work), conc, step)
	}
}

// doneOutcomes returns the outcomes of tasks already finalized when a fatal
// error aborts the run, in spec order.
func doneOutcomes(outs []Outcome) []Outcome {
	kept := make([]Outcome, 0, len(outs))
	for _, o := range outs {
		if o.Task != nil {
			kept = append(kept, o)
		}
	}
	return kept
}

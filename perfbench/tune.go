package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// baoSpec is the tune-bao job: the paper's BTED+BAO over every conv task of
// mobilenet-v1, tuned one task at a time. The budget leaves 16 BAO steps
// per task after the 64-point BTED initialization set.
func baoSpec(seed int64) job.Spec {
	return job.Spec{
		Model: "mobilenet-v1", Tuner: "bted+bao", Device: "gtx1080ti", Ops: "conv",
		Seed: seed, Budget: 80, PlanSize: 64, EarlyStop: 400, Runs: 600,
		TaskConcurrency: 1, BudgetPolicy: "uniform",
	}.Normalized()
}

// autotvmSpec is the tune-autotvm job: the same model with AutoTVM at the
// paper's budget of 1024, one task per CPU at a time. Early stopping is
// off, so every seed spends the whole budget and runs do the same work.
func autotvmSpec(seed int64) job.Spec {
	return job.Spec{
		Model: "mobilenet-v1", Tuner: "autotvm", Device: "gtx1080ti", Ops: "conv",
		Seed: seed, Budget: 1024, PlanSize: 64, EarlyStop: -1, Runs: 600,
		TaskConcurrency: runtime.NumCPU(), BudgetPolicy: "uniform",
	}.Normalized()
}

// seedsPerRun is how many tuning seeds one run of a tune-* workload covers.
// How long a job takes and how good a model it deploys both depend on the
// seed; a run's figures over several seeds move less from one workload
// seed to the next than one job's would.
const seedsPerRun = 3

// jobSeeds derives a run's tuning seeds from the workload seed. Distinct
// workload seeds give disjoint sets.
func jobSeeds(seed int64) []int64 {
	out := make([]int64, seedsPerRun)
	for k := range out {
		out[k] = nonzero(seed*seedsPerRun + int64(k))
	}
	return out
}

// nonzero maps 0, which a job spec reads as "derive the seed from the job
// ID", to 1.
func nonzero(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

// pin is a default-seed reference: the hash of the task-grouped record
// stream and the deployed model's latency statistics.
type pin struct {
	Hash      uint64
	LatencyMS float64
	Variance  float64
}

// pins hold the default seed's references, one per job seed, keyed by
// workload and scheduler driver: with more than one task in flight the
// round driver shares transfer-learning history at round boundaries, so
// its stream differs from the sequential driver's (and is the same for
// every concurrency above 1).
var pins = map[string][seedsPerRun]pin{
	"tune-bao/sequential": {
		{Hash: 0x7cc9a0ef66721853, LatencyMS: 0.5993529998957333, Variance: 4.283832571952867e-05},
		{Hash: 0x9954aa554e1fbd0a, LatencyMS: 0.67164163202977, Variance: 4.2111039219407856e-05},
		{Hash: 0x18712cc659f906c0, LatencyMS: 0.7241637753984346, Variance: 6.659251515577897e-05},
	},
	"tune-autotvm/rounds": {
		{Hash: 0xb9efc5c65e4e62cb, LatencyMS: 0.4028984798658901, Variance: 1.2355498167126999e-05},
		{Hash: 0xf1aabe118e35d8d4, LatencyMS: 0.4091094939310143, Variance: 1.599049358570898e-05},
		{Hash: 0xf0927f2eeffa2722, LatencyMS: 0.44519208198969734, Variance: 1.9948865426095515e-05},
	},
	"tune-autotvm/sequential": {
		{Hash: 0xef75247e4da7508e, LatencyMS: 0.41140100916340056, Variance: 1.1825879394336176e-05},
		{Hash: 0x7ea15b62bae21896, LatencyMS: 0.4129664692051285, Variance: 1.0051362057583076e-05},
		{Hash: 0xaa9905030821c83a, LatencyMS: 0.4398959567061517, Variance: 2.0022253161178214e-05},
	},
}

func pinKey(workload string, spec job.Spec) string {
	if spec.TaskConcurrency > 1 {
		return workload + "/rounds"
	}
	return workload + "/sequential"
}

// tuneRep is one tuning job's outcome.
type tuneRep struct {
	wall     time.Duration
	allocMB  float64
	logBytes int64
	ref      pin
	lines    int
	tasks    int
}

func (r tuneRep) matches(want pin) bool {
	return r.ref.Hash == want.Hash &&
		math.Float64bits(r.ref.LatencyMS) == math.Float64bits(want.LatencyMS) &&
		math.Float64bits(r.ref.Variance) == math.Float64bits(want.Variance)
}

// streamHash is the FNV-1a 64 hash of a record log with its lines grouped
// by task: tasks in name order, each task's lines in log order. Each
// task's own stream is deterministic; how concurrently tuned tasks
// interleave in the log is not, so the hash covers the former only.
func streamHash(data []byte) (hash uint64, lines, tasks int, err error) {
	groups := make(map[string][][]byte)
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return 0, 0, 0, fmt.Errorf("record log ends without a newline")
		}
		line := data[:i+1]
		data = data[i+1:]
		var rec struct {
			Task string `json:"task"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, 0, 0, fmt.Errorf("record line %d: %w", lines+1, err)
		}
		groups[rec.Task] = append(groups[rec.Task], line)
		lines++
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name) //lint:ignore maprange sorted on the next line
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		for _, line := range groups[name] {
			_, _ = h.Write(line) // hash.Hash.Write never fails
		}
	}
	return h.Sum64(), lines, len(names), nil
}

// finishRep hashes the log a rep wrote and fills in the deployment.
func finishRep(r *tuneRep, logPath string, dep *core.Deployment) error {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	r.logBytes = int64(len(data))
	if r.ref.Hash, r.lines, r.tasks, err = streamHash(data); err != nil {
		return fmt.Errorf("%s: %w", logPath, err)
	}
	r.ref.LatencyMS, r.ref.Variance = dep.LatencyMS, dep.Variance
	return nil
}

// tuneSetup is the per-job preparation job.Run repeats internally before it
// measures anything: spec validation, the model graph, task extraction
// with search-space construction, and the simulated device.
func tuneSetup(spec job.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	g, err := graph.Model(spec.Model)
	if err != nil {
		return err
	}
	gtasks := graph.ExtractTasks(g, spec.Extract())
	if len(gtasks) == 0 {
		return fmt.Errorf("model %s has no tasks", spec.Model)
	}
	for _, gt := range gtasks {
		if _, err := tuner.FromGraphTask(gt); err != nil {
			return err
		}
	}
	if _, err := job.NewTuner(spec.Tuner); err != nil {
		return err
	}
	_, err = backend.New(spec.Device, spec.Seed)
	return err
}

// untracedRep runs one job exactly as cmd/tune does: job.Run with the
// record log on.
func untracedRep(ctx context.Context, spec job.Spec, logPath string) (tuneRep, error) {
	runtime.GC()
	a0 := heapAllocated()
	t0 := time.Now()
	res, err := job.Run(ctx, spec, job.RunOptions{LogPath: logPath})
	wall := time.Since(t0)
	a1 := heapAllocated()
	if err != nil {
		return tuneRep{}, err
	}
	r := tuneRep{wall: wall, allocMB: float64(a1-a0) / (1 << 20)}
	return r, finishRep(&r, logPath, res.Deployment)
}

// tracedRep runs the same job through core.OptimizeModel — the pipeline
// job.Run drives — with every layer wrapped, and returns its per-layer
// figures alongside the rep.
func tracedRep(ctx context.Context, spec job.Spec, logPath string, tr *tracer) (tuneRep, map[string]float64, error) {
	const jobID = "traced"
	tn, err := job.NewTuner(spec.Tuner)
	if err != nil {
		return tuneRep{}, nil, err
	}
	var trainer *tracedTrainer
	if adv, ok := tn.(*tuner.AdvancedTuner); ok {
		inner := adv.Trainer
		if inner == nil {
			inner = active.NewXGBTrainer()
		}
		trainer = newTracedTrainer(inner, tr, jobID)
		adv.Trainer = trainer
	}
	sim, err := backend.New(spec.Device, spec.Seed)
	if err != nil {
		return tuneRep{}, nil, err
	}
	tb := newTracedBackend(sim, tr, jobID)
	op := newTracedOpener(tuner.AsOpener(tn), tr, tb, jobID)
	phases := tuner.NewPhaseTimes()

	f, err := os.Create(logPath)
	if err != nil {
		return tuneRep{}, nil, err
	}
	defer f.Close()
	sw := record.NewStreamWriter(f)
	popts := core.PipelineOptions{
		Tuning: tuner.Options{
			Budget: spec.Budget, EarlyStop: spec.EarlyStop, PlanSize: spec.PlanSize,
			Seed: spec.Seed, Workers: spec.Workers, Phases: phases,
		},
		Extract:         spec.Extract(),
		UseTransfer:     true,
		Runs:            spec.Runs,
		TaskConcurrency: spec.TaskConcurrency,
		BudgetPolicy:    spec.BudgetPolicy,
	}
	planSize := popts.Tuning.Normalized().PlanSize
	var lines, lineBytes int64
	popts.OnRecord = func(rec record.Record) {
		id := tr.begin("record.append", tr.stepOf(rec.Task), jobID, rec.Task)
		line, lerr := record.Line(rec)
		var aerr error
		if lerr != nil {
			aerr = sw.Append(rec)
		} else {
			aerr = sw.AppendLine(line)
		}
		if aerr == nil && sw.Count()%planSize == 0 {
			_ = sw.Flush() // a failed flush latches; the final Flush reports it
		}
		lines++
		lineBytes += int64(len(line))
		tr.end(id)
	}

	runtime.GC()
	a0 := heapAllocated()
	t0 := time.Now()
	root := tr.beginRoot("job.run", jobID)
	dep, err := core.OptimizeModel(ctx, spec.Model, op, tb, popts)
	tr.end(root)
	wall := time.Since(t0)
	a1 := heapAllocated()
	if err != nil {
		return tuneRep{}, nil, err
	}
	if err := sw.Flush(); err != nil {
		return tuneRep{}, nil, err
	}
	if err := f.Close(); err != nil {
		return tuneRep{}, nil, err
	}
	r := tuneRep{wall: wall, allocMB: float64(a1-a0) / (1 << 20)}
	if err := finishRep(&r, logPath, dep); err != nil {
		return tuneRep{}, nil, err
	}

	spans := tr.snapshot()
	rootEnd := spans[root-1].End
	deploy := span{Parent: root, Name: "core.deploy", Job: jobID, Start: tr.lastStep, End: rootEnd}
	tr.add(deploy)
	var predicts int64
	var perEval []int64
	var scores []span
	if trainer != nil {
		scores, predicts, perEval = trainer.scoreSpans()
		for _, s := range scores {
			tr.add(s)
		}
	}
	spans = tr.snapshot()

	steps := byName(spans, "sched.step")
	stepUnion := union(steps)
	ph := phases.Snapshot()
	m := map[string]float64{
		"sched.steps":                 float64(op.steps.Load()),
		"sched.step_s":                stepUnion.Seconds(),
		"sched.alloc_mb":              op.alloc.mb(),
		"core.deploy_s":               float64(deploy.dur()) / 1e9,
		"tuner.init_set_s":            ph[tuner.PhaseInitSet].Seconds(),
		"tuner.surrogate_train_s":     ph[tuner.PhaseSurrogateTrain].Seconds(),
		"tuner.candidate_selection_s": ph[tuner.PhaseCandidateSelection].Seconds(),
		"tuner.measurement_s":         ph[tuner.PhaseMeasurement].Seconds(),
		"backend.measure_calls":       float64(tb.calls.Load()),
		"backend.measure_s":           union(byName(spans, "backend.measure")).Seconds(),
		"backend.alloc_mb":            tb.alloc.mb(),
		"record.lines":                float64(lines),
		"record.bytes":                float64(lineBytes),
	}
	if stepUnion > 0 {
		m["sched.overlap"] = float64(sumDur(steps)) / float64(stepUnion)
	}
	if c := tb.calls.Load(); c > 0 {
		m["backend.invalid_ratio"] = float64(tb.invalid.Load()) / float64(c)
	}
	if trainer != nil {
		train := union(byName(spans, "active.train"))
		score := union(scores)
		m["active.train_calls"] = float64(trainer.calls.Load())
		m["active.train_s"] = train.Seconds()
		m["active.predict_calls"] = float64(predicts)
		m["active.score_s"] = score.Seconds()
		m["active.alloc_mb"] = trainer.alloc.mb()
		m["space.neighborhood_s"] = (ph[tuner.PhaseCandidateSelection] - train - score).Seconds()
		if len(perEval) > 0 {
			var sum int64
			for _, n := range perEval {
				sum += n
			}
			m["space.cands_per_step"] = float64(sum) / float64(len(perEval))
		}
	}
	return r, m, nil
}

// runTune measures one tune-* workload: jobs built by specOf for each of
// the run's tuning seeds.
func runTune(ctx context.Context, cfg config, specOf func(seed int64) job.Spec, rep *report) error {
	dir := filepath.Join(cfg.workDir, cfg.workload)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "records.jsonl")

	var specs []job.Spec
	for _, s := range jobSeeds(cfg.seed) {
		specs = append(specs, specOf(s))
	}
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if err := tuneSetup(specs[0]); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}

	// One reference run per job seed, untimed; they double as the warm-up.
	// At the default seed they must reproduce the pinned streams; at any
	// other seed they are the references the timed runs are checked
	// against.
	key := pinKey(cfg.workload, specs[0])
	pinned, havePins := pins[key]
	want := make([]pin, len(specs))
	var deployed, variance []float64
	for k, spec := range specs {
		ref, err := untracedRep(ctx, spec, logPath)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		rep.attempted++
		want[k] = ref.ref
		if cfg.seed == defaultSeed && havePins {
			if p := pinned[k]; !ref.matches(p) {
				rep.fail("reference run, job seed %d: stream %016x latency %v var %v, pinned %016x %v %v",
					spec.Seed, ref.ref.Hash, ref.ref.LatencyMS, ref.ref.Variance, p.Hash, p.LatencyMS, p.Variance)
			}
			want[k] = pinned[k]
		}
		deployed = append(deployed, ref.ref.LatencyMS)
		variance = append(variance, ref.ref.Variance)
		rep.note("reference, job seed %d: %d records over %d tasks, stream %016x, deployed %.6g ms (var %.6g)",
			spec.Seed, ref.lines, ref.tasks, ref.ref.Hash, ref.ref.LatencyMS, ref.ref.Variance)
	}
	if cfg.seed == defaultSeed && !havePins {
		rep.note("no pinned reference for %s; checking against this run's own references", key)
	}

	// The timed runs cycle through the job seeds.
	var walls, allocs, firstSeedWalls []float64
	var windowS float64
	for window := 1; ; window++ {
		walls, allocs, firstSeedWalls = nil, nil, nil
		steal := readSteal()
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
			k := i % len(specs)
			r, err := untracedRep(ctx, specs[k], logPath)
			if err != nil {
				return err
			}
			rep.attempted++
			if !r.matches(want[k]) {
				rep.fail("run %d, job seed %d: stream %016x latency %v, want %016x %v",
					i+1, specs[k].Seed, r.ref.Hash, r.ref.LatencyMS, want[k].Hash, want[k].LatencyMS)
			}
			walls = append(walls, r.wall.Seconds())
			allocs = append(allocs, r.allocMB)
			if k == 0 {
				firstSeedWalls = append(firstSeedWalls, r.wall.Seconds())
			}
		}
		windowS = time.Since(start).Seconds()
		if !retryStolen(ctx, rep, steal, window, time.Since(start)) {
			break
		}
	}

	slo := cfg.slo[cfg.workload]
	met := 0
	for _, w := range walls {
		if w <= slo {
			met++
		}
	}
	wall := median(walls)
	rep.set("wall_s", wall)
	rep.set("deployed_latency_ms", stats.Mean(deployed))
	rep.set("core.deployed_latency_var", stats.Mean(variance))
	rep.set("alloc_mb", median(allocs))
	rep.set("job_latency_p50_s", wall)
	rep.set("job_latency_tail_s", tail(walls))
	rep.set("slo_met_ratio", float64(met)/float64(len(walls)))
	rep.set("jobs_per_s", float64(len(walls))/windowS)
	rep.set("setup_s", median(setups))
	rep.label("job_latency_tail_s", tailLabel(len(walls)))
	rep.label("deployed_latency_ms", fmt.Sprintf("mean over job seeds %v", jobSeeds(cfg.seed)))
	rep.label("core.deployed_latency_var", fmt.Sprintf("mean over job seeds %v", jobSeeds(cfg.seed)))
	rep.note("%d timed runs in %.1f s; SLO %.3g s; jobs are closed-loop, so latency is the run's wall time", len(walls), windowS, slo)

	if cfg.trace {
		// The traced run repeats the first job seed's job; its overhead is
		// measured against that job's untraced runs.
		tr := newTracer()
		r, layers, err := tracedRep(ctx, specs[0], logPath, tr)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		rep.attempted++
		if !r.matches(want[0]) {
			rep.fail("traced run: stream %016x latency %v, want %016x %v", r.ref.Hash, r.ref.LatencyMS, want[0].Hash, want[0].LatencyMS)
		} else {
			rep.note("traced run: record stream identical to the untraced runs (%016x)", r.ref.Hash)
		}
		for k, v := range layers {
			rep.set(k, v)
		}
		rep.set("job.run_p50_s", wall)
		rep.set("job.run_tail_s", tail(walls))
		rep.set("job.store_mb", float64(r.logBytes)/(1<<20))
		untraced := median(firstSeedWalls)
		rep.set("trace.overhead_s", r.wall.Seconds()-untraced)
		rep.note("traced run took %.3f s against the untraced median %.3f s of the same job", r.wall.Seconds(), untraced)
		if runtime.NumCPU() == 1 {
			rep.na("sched.overlap", "1 CPU: tasks cannot run in parallel, overlap is a no-op")
		}
		if trainer := layers["active.train_calls"]; trainer == 0 {
			for _, k := range []string{"active.train_calls", "active.train_s", "active.predict_calls", "active.score_s", "active.alloc_mb", "space.neighborhood_s", "space.cands_per_step"} {
				rep.na(k, specs[0].Tuner+" does not use the BAO bootstrap trainer")
			}
		} else {
			rep.label("space.neighborhood_s", "derived: candidate_selection - train - score")
		}
		for _, k := range []string{"backend.cache_hit_ratio", "backend.cache_misses", "backend.cache_evictions"} {
			rep.na(k, "job.Run without a shared measurement cache, as cmd/tune runs it")
		}
		for _, k := range []string{"serve.submit_p50_ms", "serve.submit_tail_ms", "serve.rejected", "serve.stream_read_p50_ms", "serve.stream_bytes",
			"job.queue_wait_p50_s", "job.queue_wait_tail_s", "job.backlog_max", "client.late_tail_ms"} {
			rep.na(k, "no daemon or fleet client on this workload")
		}
		rep.trace = &traceFile{Spans: tr.snapshot()}
	}
	return nil
}

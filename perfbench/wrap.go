package main

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// The wrappers below time each layer from outside, through the seams the
// program already exposes: backend.Backend, tuner.Opener/Session and
// active.EvalTrainer/Evaluator. Each forwards every call unchanged, so a
// wrapped run produces the same record stream as an unwrapped one (the
// benchmark checks this on every traced run).

// tracedBackend times and counts measurements. Name and Seeded are the
// inner backend's: device keying and the seeded-measurement path depend on
// them.
type tracedBackend struct {
	inner backend.Backend
	tr    *tracer
	job   string
	alloc *allocMeter

	mu    sync.Mutex
	tasks map[tensor.Workload]string // workload → task, for span parents

	calls, invalid atomic.Int64
}

func newTracedBackend(inner backend.Backend, tr *tracer, job string) *tracedBackend {
	return &tracedBackend{inner: inner, tr: tr, job: job, alloc: newAllocMeter(), tasks: make(map[tensor.Workload]string)}
}

func (b *tracedBackend) Name() string { return b.inner.Name() }
func (b *tracedBackend) Seeded() bool { return b.inner.Seeded() }

func (b *tracedBackend) register(w tensor.Workload, task string) {
	b.mu.Lock()
	b.tasks[w] = task
	b.mu.Unlock()
}

func (b *tracedBackend) taskOf(w tensor.Workload) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tasks[w]
}

func (b *tracedBackend) measured(w tensor.Workload, f func() hwsim.Measurement) hwsim.Measurement {
	task := b.taskOf(w)
	id := b.tr.begin("backend.measure", b.tr.stepOf(task), b.job, task)
	b.alloc.enter()
	m := f()
	b.alloc.exit()
	b.tr.end(id)
	b.calls.Add(1)
	if !m.Valid {
		b.invalid.Add(1)
	}
	return m
}

func (b *tracedBackend) Measure(w tensor.Workload, c space.Config) hwsim.Measurement {
	return b.measured(w, func() hwsim.Measurement { return b.inner.Measure(w, c) })
}

func (b *tracedBackend) MeasureSeeded(w tensor.Workload, c space.Config, noiseSeed int64) hwsim.Measurement {
	return b.measured(w, func() hwsim.Measurement { return b.inner.MeasureSeeded(w, c, noiseSeed) })
}

func (b *tracedBackend) NetworkLatency(deps []hwsim.Deployment, runs int) (float64, float64, error) {
	id := b.tr.begin("backend.network_latency", 0, b.job, "")
	b.alloc.enter()
	mean, variance, err := b.inner.NetworkLatency(deps, runs)
	b.alloc.exit()
	b.tr.end(id)
	return mean, variance, err
}

// tracedOpener wraps every session the scheduler opens so each Step is a
// sched.step span.
type tracedOpener struct {
	inner tuner.Opener
	tr    *tracer
	b     *tracedBackend // learns which task each workload belongs to
	job   string
	alloc *allocMeter

	steps atomic.Int64
}

func newTracedOpener(inner tuner.Opener, tr *tracer, b *tracedBackend, job string) *tracedOpener {
	return &tracedOpener{inner: inner, tr: tr, b: b, job: job, alloc: newAllocMeter()}
}

func (o *tracedOpener) Name() string { return o.inner.Name() }

// Tune implements tuner.Tuner as Open followed by Drive, like every tuner
// in the program.
func (o *tracedOpener) Tune(ctx context.Context, task *tuner.Task, b backend.Backend, opts tuner.Options) (tuner.Result, error) {
	s, err := o.Open(ctx, task, b, opts)
	if err != nil {
		return tuner.Result{}, err
	}
	return tuner.Drive(ctx, s)
}

func (o *tracedOpener) Open(ctx context.Context, task *tuner.Task, b backend.Backend, opts tuner.Options) (tuner.Session, error) {
	s, err := o.inner.Open(ctx, task, b, opts)
	if err != nil {
		return nil, err
	}
	return o.wrap(task, s), nil
}

func (o *tracedOpener) Restore(ctx context.Context, task *tuner.Task, b backend.Backend, opts tuner.Options, st tuner.SessionState) (tuner.Session, error) {
	s, err := o.inner.Restore(ctx, task, b, opts, st)
	if err != nil {
		return nil, err
	}
	return o.wrap(task, s), nil
}

func (o *tracedOpener) wrap(task *tuner.Task, s tuner.Session) *tracedSession {
	o.b.register(task.Workload, task.Name)
	return &tracedSession{inner: s, o: o, task: task.Name}
}

type tracedSession struct {
	inner tuner.Session
	o     *tracedOpener
	task  string
}

func (s *tracedSession) Step(ctx context.Context) (bool, error) {
	id := s.o.tr.beginStep(s.o.job, s.task)
	s.o.alloc.enter()
	done, err := s.inner.Step(ctx)
	s.o.alloc.exit()
	s.o.tr.endStep(id, s.task)
	s.o.steps.Add(1)
	return done, err
}

func (s *tracedSession) Result() (tuner.Result, error) { return s.inner.Result() }
func (s *tracedSession) Measured() int                 { return s.inner.Measured() }
func (s *tracedSession) BestGFLOPS() (float64, bool)   { return s.inner.BestGFLOPS() }

// tracedTrainer times bootstrap-model training and wraps each trained
// evaluator so its scoring calls are counted and bracketed.
type tracedTrainer struct {
	inner active.EvalTrainer
	tr    *tracer
	job   string
	alloc *allocMeter

	mu    sync.Mutex
	evals []*tracedEvaluator
	calls atomic.Int64
}

func newTracedTrainer(inner active.EvalTrainer, tr *tracer, job string) *tracedTrainer {
	return &tracedTrainer{inner: inner, tr: tr, job: job, alloc: newAllocMeter()}
}

func (t *tracedTrainer) Train(X [][]float64, y []float64, seed int64) (active.Evaluator, error) {
	parent := t.tr.soleStep()
	id := t.tr.begin("active.train", parent, t.job, "")
	t.alloc.enter()
	ev, err := t.inner.Train(X, y, seed)
	t.alloc.exit()
	t.tr.end(id)
	t.calls.Add(1)
	if err != nil {
		return nil, err
	}
	te := &tracedEvaluator{inner: ev, tr: t.tr, parent: parent}
	t.mu.Lock()
	t.evals = append(t.evals, te)
	t.mu.Unlock()
	return te, nil
}

// scoreSpans turns each evaluator's first-to-last Predict interval into an
// active.score span. The evaluators of one bootstrap selection score the
// same candidates in one loop, so the union of these spans is the scoring
// wall time.
func (t *tracedTrainer) scoreSpans() (spans []span, predicts int64, perEval []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.evals {
		n := e.calls.Load()
		if n == 0 {
			continue
		}
		predicts += n
		perEval = append(perEval, n)
		spans = append(spans, span{Parent: e.parent, Name: "active.score", Job: t.job, Start: e.first.Load(), End: e.last.Load()})
	}
	return spans, predicts, perEval
}

type tracedEvaluator struct {
	inner       active.Evaluator
	tr          *tracer
	parent      int
	calls       atomic.Int64
	first, last atomic.Int64
}

func (e *tracedEvaluator) Predict(x []float64) float64 {
	t0 := e.tr.now()
	v := e.inner.Predict(x)
	t1 := e.tr.now()
	e.calls.Add(1)
	for {
		cur := e.first.Load()
		if (cur != 0 && cur <= t0) || e.first.CompareAndSwap(cur, t0) {
			break
		}
	}
	for {
		cur := e.last.Load()
		if cur >= t1 || e.last.CompareAndSwap(cur, t1) {
			break
		}
	}
	return v
}

package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/job"
	"repro/internal/tuner"
)

// smallSpec is a quick whole-model job: alexnet's conv tasks at a small
// budget that still leaves BAO steps after the initialization set.
func smallSpec(tunerName string, concurrency int) job.Spec {
	return job.Spec{
		Model: "alexnet", Tuner: tunerName, Device: "gtx1080ti", Ops: "conv",
		Seed: 11, Budget: 24, PlanSize: 16, EarlyStop: -1, Runs: 50,
		TaskConcurrency: concurrency, BudgetPolicy: "uniform",
	}.Normalized()
}

func TestWrappersPreserveIdentity(t *testing.T) {
	sim, err := backend.New("gtx1080ti", 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tb := newTracedBackend(sim, tr, "j")
	for _, inner := range []backend.Backend{sim, backend.NewCache(sim)} {
		wrapped := newTracedBackend(inner, tr, "j")
		if wrapped.Name() != inner.Name() || wrapped.Seeded() != inner.Seeded() {
			t.Errorf("traced backend is %q seeded=%v, inner %q seeded=%v", wrapped.Name(), wrapped.Seeded(), inner.Name(), inner.Seeded())
		}
	}
	for _, name := range []string{"bted+bao", "autotvm", "random"} {
		tn, err := job.NewTuner(name)
		if err != nil {
			t.Fatal(err)
		}
		op := newTracedOpener(tuner.AsOpener(tn), tr, tb, "j")
		if op.Name() != tn.Name() {
			t.Errorf("traced opener is %q, inner %q", op.Name(), tn.Name())
		}
	}
}

// TestTracedRunMatchesJobRun checks that a run with every layer wrapped
// writes the record log job.Run writes for the same spec: byte for byte
// with one task in flight, and task by task with several.
func TestTracedRunMatchesJobRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec job.Spec
	}{
		{"bted+bao", smallSpec("bted+bao", 1)},
		{"autotvm-rounds", smallSpec("autotvm", 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plain, traced := filepath.Join(dir, "plain.jsonl"), filepath.Join(dir, "traced.jsonl")
			ctx := context.Background()
			want, err := untracedRep(ctx, tc.spec, plain)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, layers, err := tracedRep(ctx, tc.spec, traced, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !got.matches(want.ref) {
				t.Fatalf("traced run: stream %016x latency %v, job.Run: %016x %v", got.ref.Hash, got.ref.LatencyMS, want.ref.Hash, want.ref.LatencyMS)
			}
			if tc.spec.TaskConcurrency == 1 {
				a, errA := os.ReadFile(plain)
				b, errB := os.ReadFile(traced)
				if errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if !bytes.Equal(a, b) {
					t.Fatal("traced record log differs from job.Run's")
				}
			}
			if layers["sched.steps"] == 0 || layers["backend.measure_calls"] == 0 || int(layers["record.lines"]) != want.lines {
				t.Errorf("layer counts missing: %v", layers)
			}
			if tc.spec.Tuner == "bted+bao" && (layers["active.train_calls"] == 0 || layers["active.predict_calls"] == 0) {
				t.Errorf("bootstrap trainer not traced: %v", layers)
			}
		})
	}
}

func TestStreamHashGroupsByTask(t *testing.T) {
	a := []byte(`{"task":"b","x":1}` + "\n" + `{"task":"a","x":2}` + "\n" + `{"task":"b","x":3}` + "\n")
	b := []byte(`{"task":"a","x":2}` + "\n" + `{"task":"b","x":1}` + "\n" + `{"task":"b","x":3}` + "\n")
	c := []byte(`{"task":"b","x":3}` + "\n" + `{"task":"a","x":2}` + "\n" + `{"task":"b","x":1}` + "\n")
	ha, n, tasks, err := streamHash(a)
	if err != nil || n != 3 || tasks != 2 {
		t.Fatalf("streamHash: %v lines %d tasks %d", err, n, tasks)
	}
	hb, _, _, _ := streamHash(b)
	hc, _, _, _ := streamHash(c)
	if ha != hb {
		t.Error("interleaving across tasks changed the hash")
	}
	if ha == hc {
		t.Error("reordering within a task did not change the hash")
	}
}

func TestSSERecords(t *testing.T) {
	body := []byte("id: 0\nevent: record\ndata: {\"a\":1}\n\nid: 1\nevent: record\ndata: {\"a\":2}\n\nevent: done\ndata: {\"state\":\"done\"}\n\n")
	got, n, err := sseRecords(body)
	if err != nil || n != 2 || string(got) != "{\"a\":1}\n{\"a\":2}\n" {
		t.Fatalf("sseRecords = %q, %d, %v", got, n, err)
	}
	if _, _, err := sseRecords(body[:40]); err == nil {
		t.Error("a stream without its done event was accepted")
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "step", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "measure", Start: 15, End: 25},
	}
	if got := union(byName(spans, "step")); got != 50 {
		t.Errorf("union of steps = %d, want 50", got)
	}
	self := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		self[st.Name] = st
	}
	if got := self["root"].SelfS * 1e9; got < 49.5 || got > 50.5 {
		t.Errorf("root self time %v ns, want 50", got)
	}
	if got := self["step"].SelfS * 1e9; got < 49.5 || got > 50.5 {
		t.Errorf("step self time %v ns, want 50", got)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if got := tail(xs); got != 20 {
		t.Errorf("tail of 1..30 = %v, want 20 (ten samples above it)", got)
	}
	if got := tail(xs[:12]); got != 12 {
		t.Errorf("tail of 1..12 = %v, want the maximum", got)
	}
}

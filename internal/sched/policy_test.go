package sched

import (
	"testing"

	"repro/internal/tuner"
)

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{"": "uniform", "uniform": "uniform", "adaptive": "adaptive"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestUniformAllocate(t *testing.T) {
	p := UniformPolicy{}
	if got := p.SessionBudget(64, 1000); got != 64 {
		t.Fatalf("SessionBudget = %d, want 64", got)
	}
	states := []TaskState{
		{Index: 0, PlanSize: 8},
		{Index: 1, PlanSize: 16, Done: true},
		{Index: 2, PlanSize: 4},
	}
	got := p.Allocate(0, states)
	if got[0] != 8 || got[1] != 0 || got[2] != 4 {
		t.Fatalf("Allocate = %v", got)
	}
}

func TestAdaptiveAllocate(t *testing.T) {
	p := AdaptivePolicy{}
	if got := p.SessionBudget(64, 1000); got != 1000 {
		t.Fatalf("SessionBudget = %d, want total", got)
	}

	// No gains anywhere: equal split of the uniform quantum.
	flat := []TaskState{
		{Index: 0, PlanSize: 8, Weight: 1},
		{Index: 1, PlanSize: 8, Weight: 1},
	}
	got := p.Allocate(0, flat)
	if got[0] != 8 || got[1] != 8 {
		t.Fatalf("equal fallback: %v", got)
	}

	// Task 1 improved, task 0 plateaued: the quantum shifts toward task 1,
	// but task 0 keeps its floor of one.
	gain := []TaskState{
		{Index: 0, PlanSize: 8, Weight: 1, Measured: 16, PrevMeasured: 8, Best: 100, PrevBest: 100},
		{Index: 1, PlanSize: 8, Weight: 1, Measured: 16, PrevMeasured: 8, Best: 120, PrevBest: 100},
	}
	got = p.Allocate(3, gain)
	if got[0] != 1 || got[1] != 15 {
		t.Fatalf("gain shift: %v (want [1 15])", got)
	}
	if got[0]+got[1] != 16 {
		t.Fatalf("quantum not conserved: %v", got)
	}

	// Equal gains, unequal weights: the heavier task gets the larger share;
	// the largest-remainder tie goes to the lower index.
	weighted := []TaskState{
		{Index: 0, PlanSize: 8, Weight: 1, Measured: 16, PrevMeasured: 8, Best: 110, PrevBest: 100},
		{Index: 1, PlanSize: 8, Weight: 3, Measured: 16, PrevMeasured: 8, Best: 110, PrevBest: 100},
	}
	got = p.Allocate(5, weighted)
	if got[0]+got[1] != 16 || got[1] <= got[0] {
		t.Fatalf("weighted shift: %v", got)
	}

	// Done tasks get nothing and contribute no quantum.
	done := []TaskState{
		{Index: 0, PlanSize: 8, Done: true},
		{Index: 1, PlanSize: 8, Weight: 1},
	}
	got = p.Allocate(7, done)
	if got[0] != 0 || got[1] != 8 {
		t.Fatalf("done handling: %v", got)
	}
	if out := p.Allocate(8, []TaskState{{Index: 0, Done: true}}); out[0] != 0 {
		t.Fatalf("all-done: %v", out)
	}
}

func specsForPreview(t *testing.T, budget, plan int) []Spec {
	t.Helper()
	tasks := schedTasks(t)
	specs := make([]Spec, len(tasks))
	for i, task := range tasks {
		specs[i] = Spec{Task: task, Opts: tuner.Options{Budget: budget, PlanSize: plan, EarlyStop: -1}}
	}
	return specs
}

func TestPlanPreviewUniform(t *testing.T) {
	specs := specsForPreview(t, 24, 8)
	// Round order: every task advances one plan per round.
	plans := PlanPreview(specs, Options{TaskConcurrency: 2})
	if len(plans) != 3 {
		t.Fatalf("%d rounds, want 3 (24/8)", len(plans))
	}
	cum := map[int]int{}
	for r, plan := range plans {
		if plan.Round != r || len(plan.Grants) != len(specs) {
			t.Fatalf("round %d: %+v", r, plan)
		}
		for _, g := range plan.Grants {
			if g.Grant != 8 {
				t.Fatalf("uniform grant %d, want 8", g.Grant)
			}
			cum[g.Index] += g.Grant
			if g.Cumulative != cum[g.Index] {
				t.Fatalf("cumulative mismatch: %+v", g)
			}
		}
	}
	for i := range specs {
		if cum[i] != 24 {
			t.Fatalf("task %d planned %d, want 24", i, cum[i])
		}
	}

	// Sequential order (the default concurrency): what Run executes is one
	// grant per round, task after task — 3 tasks x 24/8 = 9 rounds.
	plans = PlanPreview(specs, Options{})
	if len(plans) != 9 {
		t.Fatalf("sequential: %d rounds, want 9", len(plans))
	}
	for r, plan := range plans {
		if plan.Round != r || len(plan.Grants) != 1 {
			t.Fatalf("sequential round %d: %+v", r, plan)
		}
		if g := plan.Grants[0]; g.Index != r/3 || g.Grant != 8 || g.Cumulative != 8*(r%3+1) {
			t.Fatalf("sequential round %d grant %+v, want task %d +8 (=%d)", r, g, r/3, 8*(r%3+1))
		}
	}
}

func TestPlanPreviewAdaptive(t *testing.T) {
	specs := specsForPreview(t, 24, 8)
	plans := PlanPreview(specs, Options{Policy: AdaptivePolicy{}})
	if len(plans) == 0 {
		t.Fatal("no rounds planned")
	}
	total := 0
	for _, plan := range plans {
		for _, g := range plan.Grants {
			total += g.Grant
		}
	}
	if total != 3*24 {
		t.Fatalf("planned total %d, want %d", total, 3*24)
	}
	if PlanPreview(nil, Options{}) != nil {
		t.Fatal("empty preview should be nil")
	}
}

package sched

import (
	"fmt"
	"sort"
)

// TaskState is the scheduler's per-task snapshot handed to a Policy at each
// round boundary. All fields are schedule-independent (derived from the
// session's measured samples), so allocations — and therefore results — are
// identical for every TaskConcurrency and Workers value.
type TaskState struct {
	// Index is the task's position in the spec list; allocations returned
	// by Allocate are index-aligned.
	Index int
	Name  string
	// Done marks a finalized task; its allocation is ignored.
	Done bool
	// Measured / PrevMeasured are the measurement counts now and at the
	// previous round boundary.
	Measured     int
	PrevMeasured int
	// Budget is the task's own normalized budget; PlanSize its batch size.
	Budget   int
	PlanSize int
	// Weight is the task's multiplicity in the graph (Task.Count): a knob
	// shared by many fused kernels is worth more end-to-end latency per
	// GFLOPS gained.
	Weight int
	// Best / PrevBest are the best valid GFLOPS now and at the previous
	// round boundary (0 while nothing valid was measured).
	Best     float64
	PrevBest float64
}

// Policy decides how the graph-wide measurement budget is spent per round.
// Implementations must be pure functions of their inputs: the scheduler's
// determinism guarantee extends only to policies whose allocations depend
// on nothing but (round, states).
type Policy interface {
	Name() string
	// SessionBudget returns the measurement cap baked into a task's session
	// options, given the task's own budget and the graph-wide total. The
	// uniform policy keeps the task's own budget; the adaptive policy
	// raises the cap to the total so reallocation can move measurements
	// between tasks (the scheduler still enforces the graph-wide total).
	SessionBudget(own, total int) int
	// Allocate grants each task additional measurements for the coming
	// round (index-aligned with states; entries for Done tasks are
	// ignored). The scheduler caps each grant at the task's session budget
	// and the remaining graph-wide budget.
	Allocate(round int, states []TaskState) []int
}

// PolicyByName resolves a policy by its CLI name. The empty string selects
// the uniform default.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "uniform":
		return UniformPolicy{}, nil
	case "adaptive":
		return AdaptivePolicy{}, nil
	}
	return nil, fmt.Errorf("sched: unknown budget policy %q (want uniform or adaptive)", name)
}

// UniformPolicy reproduces the legacy pipeline's budget behaviour: every
// task keeps its own budget and advances by one plan per round until it is
// spent. With TaskConcurrency 1 the scheduler restricts it to one task at a
// time (the sequential task order), which is exactly the pre-scheduler
// pipeline.
type UniformPolicy struct{}

// Name implements Policy.
func (UniformPolicy) Name() string { return "uniform" }

// SessionBudget implements Policy: each task keeps its own budget.
func (UniformPolicy) SessionBudget(own, _ int) int { return own }

// Allocate implements Policy: one plan per live task per round.
func (UniformPolicy) Allocate(_ int, states []TaskState) []int {
	out := make([]int, len(states))
	for i, st := range states {
		if !st.Done {
			out[i] = st.PlanSize
		}
	}
	return out
}

// sequentialOrder is the uniform policy restricted to one task: each round
// grants one plan to the lowest-index live task, whose session keeps its
// own budget. It drives the sequential task order; its allocation buffer
// is reused across rounds.
type sequentialOrder struct {
	UniformPolicy
	out []int
}

// Allocate implements Policy.
func (p *sequentialOrder) Allocate(_ int, states []TaskState) []int {
	p.out = append(p.out[:0], make([]int, len(states))...)
	for i, st := range states {
		if !st.Done {
			p.out[i] = st.PlanSize
			break
		}
	}
	return p.out
}

// AdaptivePolicy reallocates the remaining graph-wide budget each round
// toward the tasks with the highest marginal GFLOPS gain — the improvement
// in best throughput per measurement since the previous round boundary,
// weighted by the task's graph multiplicity. Tasks that stopped improving
// cede their share to tasks still climbing; every live task keeps a floor
// of one measurement per round so its gain estimate stays fresh (and so a
// temporarily stalled task can re-enter). While no gains exist (the first
// rounds, or when every task plateaued) it falls back to equal weights,
// which also makes the dry-run preview exact until measurements diverge.
type AdaptivePolicy struct{}

// Name implements Policy.
func (AdaptivePolicy) Name() string { return "adaptive" }

// SessionBudget implements Policy: any task may consume up to the
// graph-wide total; the scheduler enforces the aggregate cap.
func (AdaptivePolicy) SessionBudget(_, total int) int { return total }

// Allocate implements Policy.
func (AdaptivePolicy) Allocate(_ int, states []TaskState) []int {
	out := make([]int, len(states))
	live := make([]int, 0, len(states))
	quantum := 0 // same aggregate spend rate per round as uniform
	for i, st := range states {
		if st.Done {
			continue
		}
		live = append(live, i)
		quantum += st.PlanSize
	}
	if len(live) == 0 {
		return out
	}

	weights := make([]float64, len(live))
	wsum := 0.0
	for j, i := range live {
		st := states[i]
		dm := st.Measured - st.PrevMeasured
		if dm < 1 {
			dm = 1
		}
		gain := (st.Best - st.PrevBest) / float64(dm)
		if gain < 0 {
			gain = 0
		}
		w := float64(max(1, st.Weight)) * gain
		weights[j] = w
		wsum += w
	}
	if wsum <= 0 {
		for j := range weights {
			weights[j] = 1
		}
		wsum = float64(len(live))
	}

	// Floor of one measurement per live task; the rest apportioned by
	// largest remainder (exact quotas rounded down, leftovers to the
	// largest fractional parts, ties resolved by task index via the stable
	// sort over index order).
	rem := quantum - len(live)
	if rem < 0 {
		rem = 0
	}
	base := make([]int, len(live))
	exact := make([]float64, len(live))
	assigned := 0
	for j := range live {
		exact[j] = float64(rem) * weights[j] / wsum
		base[j] = int(exact[j])
		assigned += base[j]
	}
	order := make([]int, len(live))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return exact[order[a]]-float64(base[order[a]]) > exact[order[b]]-float64(base[order[b]])
	})
	for k := 0; k < rem-assigned; k++ {
		base[order[k%len(order)]]++
	}
	for j, i := range live {
		out[i] = 1 + base[j]
	}
	return out
}

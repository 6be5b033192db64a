package sched

// PlannedGrant is one task's share of a previewed round.
type PlannedGrant struct {
	// Index / Name identify the task.
	Index int
	Name  string
	// Grant is the measurements granted this round; Cumulative the planned
	// total after the round.
	Grant      int
	Cumulative int
}

// RoundPlan is one previewed scheduler round.
type RoundPlan struct {
	Round int
	// Grants lists the tasks granted work this round, in task-index order.
	Grants []PlannedGrant
}

// PlanPreview simulates the round/budget schedule the scheduler would run
// for the specs under opts — without opening sessions or measuring anything
// (cmd/tune -dry-run). It selects the same task order as Run and computes
// each round's grants with the driver's own allocation, with two stated
// idealizations: sessions are assumed to hit their per-round goals exactly
// (a real batch may overshoot by a partial plan), and early stopping is
// unpredictable and ignored. Because no measurements exist, marginal gains
// are all zero, so the adaptive policy follows its equal-weight fallback —
// the schedule it runs until real gains differentiate the tasks.
func PlanPreview(specs []Spec, opts Options) []RoundPlan {
	if len(specs) == 0 {
		return nil
	}
	s := newSchedule(specs, opts)
	var plans []RoundPlan
	for round := 0; ; round++ {
		total := s.measured()
		live := false
		for i := range s.states {
			st := &s.states[i]
			st.Done = st.Done || s.exhausted(i, total)
			live = live || !st.Done
		}
		if !live {
			return plans
		}
		plan := RoundPlan{Round: round}
		for _, g := range s.allocate(round, total) {
			st := &s.states[g.idx]
			st.Measured += g.n
			plan.Grants = append(plan.Grants, PlannedGrant{
				Index: g.idx, Name: st.Name, Grant: g.n, Cumulative: st.Measured})
		}
		plans = append(plans, plan)
	}
}

// schedule is the budget accounting Run and PlanPreview share: the task
// order the options select, the policy's view of every task, and the
// per-round grant computation.
type schedule struct {
	policy Policy
	driver string // DriverSequential or DriverRounds: the task order
	conc   int    // TaskConcurrency clamped to [1, len(specs)]
	total  int    // graph-wide budget
	caps   []int  // per-task session budgets
	// states is the policy's view, index-aligned with the specs. The caller
	// keeps Measured, Best and Done current at each boundary; allocate
	// moves PrevMeasured and PrevBest.
	states []TaskState
	grants []grant // reused across rounds
}

// grant is n more measurements for task idx in the coming round.
type grant struct{ idx, n int }

func newSchedule(specs []Spec, opts Options) *schedule {
	s := &schedule{policy: opts.Policy, driver: DriverRounds,
		conc: min(max(opts.TaskConcurrency, 1), len(specs))}
	if s.policy == nil {
		s.policy = UniformPolicy{}
	}
	if _, uniform := s.policy.(UniformPolicy); uniform && s.conc == 1 {
		s.policy, s.driver = &sequentialOrder{}, DriverSequential
	}
	s.states = make([]TaskState, len(specs))
	for i, sp := range specs {
		nopts := sp.Opts.Normalized()
		s.states[i] = TaskState{Index: i, Name: sp.Task.Name,
			Budget: nopts.Budget, PlanSize: nopts.PlanSize, Weight: sp.Task.Count}
		s.total += nopts.Budget
	}
	s.caps = make([]int, len(specs))
	for i, st := range s.states {
		s.caps[i] = s.policy.SessionBudget(st.Budget, s.total)
	}
	return s
}

// measured is the graph-wide measurement count.
func (s *schedule) measured() int {
	n := 0
	for _, st := range s.states {
		n += st.Measured
	}
	return n
}

// exhausted reports whether task i must finalize at a boundary where total
// measurements exist: its session reached its cap, or the graph-wide budget
// is spent.
func (s *schedule) exhausted(i, total int) bool {
	return s.states[i].Measured >= s.caps[i] || total >= s.total
}

// allocate turns the policy's allocation for the coming round into grants,
// in task-index order: each live task's grant is capped at its session
// budget and at what is left of the graph-wide budget. When that leaves
// nothing although tasks are live, every live task advances by one plan (at
// least one measurement) so the run always terminates. The live tasks'
// previous-boundary view then moves to the current one. The returned slice
// is valid until the next call.
func (s *schedule) allocate(round, total int) []grant {
	alloc := s.policy.Allocate(round, s.states)
	remaining := s.total - total
	s.grants = s.grants[:0]
	for i, st := range s.states {
		if st.Done || i >= len(alloc) {
			continue
		}
		if g := min(alloc[i], s.caps[i]-st.Measured, remaining); g > 0 {
			remaining -= g
			s.grants = append(s.grants, grant{i, g})
		}
	}
	if len(s.grants) == 0 {
		for i, st := range s.states {
			if !st.Done {
				s.grants = append(s.grants, grant{i, max(1, min(st.PlanSize, s.caps[i]-st.Measured))})
			}
		}
	}
	for i := range s.states {
		if st := &s.states[i]; !st.Done {
			st.PrevMeasured, st.PrevBest = st.Measured, st.Best
		}
	}
	return s.grants
}

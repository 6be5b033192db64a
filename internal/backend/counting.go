package backend

import (
	"sync/atomic"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// Counting wraps a backend and counts every raw measurement call that
// reaches it. Layered *under* a memo (NewCache, WithShared) it counts only
// cache misses, which is
// how the tests assert that memoization issues strictly fewer simulator
// calls; layered on top it counts what the tuner asked for.
//
// Counting is safe for concurrent use.
type Counting struct {
	inner  Backend
	calls  atomic.Int64
	seeded atomic.Int64
}

// NewCounting wraps inner with call counters.
func NewCounting(inner Backend) *Counting {
	return &Counting{inner: inner}
}

// Name implements Backend.
func (c *Counting) Name() string { return "counting(" + c.inner.Name() + ")" }

// Seeded implements Backend.
func (c *Counting) Seeded() bool { return c.inner.Seeded() }

// Measure implements Backend.
func (c *Counting) Measure(w tensor.Workload, cfg space.Config) hwsim.Measurement {
	c.calls.Add(1)
	return c.inner.Measure(w, cfg)
}

// MeasureSeeded implements Backend.
func (c *Counting) MeasureSeeded(w tensor.Workload, cfg space.Config, noiseSeed int64) hwsim.Measurement {
	c.calls.Add(1)
	c.seeded.Add(1)
	return c.inner.MeasureSeeded(w, cfg, noiseSeed)
}

// NetworkLatency implements Backend.
func (c *Counting) NetworkLatency(deps []hwsim.Deployment, runs int) (float64, float64, error) {
	return c.inner.NetworkLatency(deps, runs)
}

// Calls returns the total number of Measure plus MeasureSeeded calls.
func (c *Counting) Calls() int64 { return c.calls.Load() }

// SeededCalls returns the number of MeasureSeeded calls.
func (c *Counting) SeededCalls() int64 { return c.seeded.Load() }

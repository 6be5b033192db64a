package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Times are nanoseconds since
// the tracer's epoch; Parent 0 means the span hangs off the trace root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Task   string `json:"task,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the benchmark writes them out
// at exit. It also tracks which scheduler step is open for each task, so
// spans recorded inside a step (measurements, model training) get it as
// their parent.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[string]int // task name → open sched.step span ID
	// sole is the open step's ID while exactly one step is open, else 0:
	// spans without a task key (bootstrap training, scoring) can only be
	// attributed when steps do not overlap.
	sole     int
	nOpen    int
	lastStep int64 // end of the latest sched.step span
	// root is the parent given to spans opened with parent 0 once set.
	root int

	// recording is time spent inside begin/end: the direct cost of tracing.
	recording time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[string]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant, such as a daemon timestamp, to trace
// time.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, job, task string) int {
	t0 := time.Now()
	t.mu.Lock()
	if parent == 0 {
		parent = t.root
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Task: task, Start: int64(t0.Sub(t.epoch))})
	t.recording += time.Since(t0)
	t.mu.Unlock()
	return id
}

// beginRoot opens the span that spans opened later with parent 0 hang off.
func (t *tracer) beginRoot(name, job string) int {
	id := t.begin(name, 0, job, "")
	t.mu.Lock()
	t.root = id
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	t0 := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = int64(t0.Sub(t.epoch))
	t.recording += time.Since(t0)
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(s span) int {
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.recording += time.Since(t0)
	return s.ID
}

// beginStep opens a sched.step span for task and marks it current.
func (t *tracer) beginStep(job, task string) int {
	id := t.begin("sched.step", 0, job, task)
	t.mu.Lock()
	t.open[task] = id
	t.nOpen++
	t.sole = 0
	if t.nOpen == 1 {
		t.sole = id
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) endStep(id int, task string) {
	t.end(id)
	t.mu.Lock()
	delete(t.open, task)
	t.nOpen--
	t.sole = 0
	if t.nOpen == 1 {
		for _, v := range t.open {
			t.sole = v
		}
	}
	if e := t.spans[id-1].End; e > t.lastStep {
		t.lastStep = e
	}
	t.mu.Unlock()
}

// stepOf returns the open step span of task (0 when none).
func (t *tracer) stepOf(task string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[task]
}

// soleStep returns the open step span when exactly one step is open.
func (t *tracer) soleStep() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sole
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// union is the total length covered by the spans' intervals, counting
// overlapping time once: the layer's busy wall time.
func union(spans []span) time.Duration {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	return time.Duration(coverage(iv))
}

func coverage(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

func sumDur(spans []span) time.Duration {
	var d int64
	for _, s := range spans {
		d += s.dur()
	}
	return time.Duration(d)
}

// selfTime is, per span name, the spans' total duration minus the part of
// each span its own children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	ShareOf float64 `json:"self_share"`
}

func selfTimes(spans []span) []selfTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := make(map[string]*selfTime)
	var names []string
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			agg[s.Name] = st
			names = append(names, s.Name)
		}
		var clipped [][2]int64
		for _, c := range children[s.ID] {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b > a {
				clipped = append(clipped, [2]int64{a, b})
			}
		}
		st.Count++
		st.TotalS += float64(s.dur()) / 1e9
		st.SelfS += float64(s.dur()-coverage(clipped)) / 1e9
	}
	sort.Strings(names)
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		st := agg[n]
		if st.TotalS > 0 {
			st.ShareOf = st.SelfS / st.TotalS
		}
		out = append(out, *st)
	}
	return out
}

// allocMeter accounts heap allocation over the union of a layer's spans:
// the process-wide allocation counter is read when the first of possibly
// concurrent spans opens and when the last one closes, so overlapping spans
// are not counted twice. Other goroutines allocating inside that window
// are counted too; the figure is an upper bound for the layer.
type allocMeter struct {
	mu     sync.Mutex
	active int
	start  uint64
	total  uint64
	sample []metrics.Sample
}

func newAllocMeter() *allocMeter {
	return &allocMeter{sample: []metrics.Sample{{Name: heapAllocsMetric}}}
}

const heapAllocsMetric = "/gc/heap/allocs:bytes"

// heapAllocated is the cumulative count of bytes allocated on the heap.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: heapAllocsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (m *allocMeter) enter() {
	m.mu.Lock()
	if m.active == 0 {
		metrics.Read(m.sample)
		m.start = m.sample[0].Value.Uint64()
	}
	m.active++
	m.mu.Unlock()
}

func (m *allocMeter) exit() {
	m.mu.Lock()
	m.active--
	if m.active == 0 {
		metrics.Read(m.sample)
		m.total += m.sample[0].Value.Uint64() - m.start
	}
	m.mu.Unlock()
}

func (m *allocMeter) mb() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(m.total) / (1 << 20)
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Host      hostFacts      `json:"host"`
	Notes     []string       `json:"notes,omitempty"`
	SelfTimes []selfTime     `json:"self_times"`
	Metrics   map[string]any `json:"per_layer"`
	Spans     []span         `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", tf.Workload, tf.Seed))
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

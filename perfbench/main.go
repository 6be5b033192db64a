// Command perfbench is the repository benchmark: one command that runs a
// named workload, measures it for a fixed time, checks that the program's
// outputs are correct, and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 7.7, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// further traced run times each layer from outside the program, through
// its public seams, and the metrics are the per-layer ones. See README.md
// for the workloads, the metrics, and how to run it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

const (
	// defaultSeed is the seed whose reference outputs are pinned.
	defaultSeed = 2021
	// setupReps is how many times each run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
	// deadline bounds one invocation, so the command always exits.
	deadline = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	slo      map[string]float64 // per-workload job latency limit, seconds
	workDir  string
	served   string
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"deployed_latency_ms", "ms"},
	{"alloc_mb", "MB"},
	{"job_latency_p50_s", "s"},
	{"job_latency_tail_s", "s"},
	{"slo_met_ratio", "ratio"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics of single layers.
var perLayer = []metricDef{
	{"sched.steps", "count"},
	{"sched.step_s", "s"},
	{"sched.overlap", "ratio"},
	{"sched.alloc_mb", "MB"},
	{"core.deploy_s", "s"},
	{"core.deployed_latency_var", "ms2"},
	{"tuner.init_set_s", "s"},
	{"tuner.surrogate_train_s", "s"},
	{"tuner.candidate_selection_s", "s"},
	{"tuner.measurement_s", "s"},
	{"active.train_calls", "count"},
	{"active.train_s", "s"},
	{"active.predict_calls", "count"},
	{"active.score_s", "s"},
	{"active.alloc_mb", "MB"},
	{"space.neighborhood_s", "s"},
	{"space.cands_per_step", "count"},
	{"backend.measure_calls", "count"},
	{"backend.measure_s", "s"},
	{"backend.invalid_ratio", "ratio"},
	{"backend.alloc_mb", "MB"},
	{"backend.cache_hit_ratio", "ratio"},
	{"backend.cache_misses", "count"},
	{"backend.cache_evictions", "count"},
	{"record.lines", "count"},
	{"record.bytes", "bytes"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_tail_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.stream_read_p50_ms", "ms"},
	{"serve.stream_bytes", "bytes"},
	{"job.queue_wait_p50_s", "s"},
	{"job.queue_wait_tail_s", "s"},
	{"job.run_p50_s", "s"},
	{"job.run_tail_s", "s"},
	{"job.backlog_max", "count"},
	{"job.store_mb", "MB"},
	{"client.late_tail_ms", "ms"},
	{"trace.overhead_s", "s"},
}

var workloads = []string{"tune-bao", "tune-autotvm", "serve-fleet"}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, deadline)
	rep, err := run(ctx, cfg)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.print(os.Stdout) {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: "+strings.Join(workloads, " | "))
	seed := fset.Int64("seed", defaultSeed, "workload seed (the default seed's outputs are pinned)")
	seconds := fset.Int("seconds", 20, "how long the timed window runs")
	trace := fset.Int("trace", 0, "1: add a traced run and report per-layer metrics")
	slo := fset.String("slo", "tune-bao=20,tune-autotvm=6,serve-fleet=0.5", "per-workload job latency limit in seconds, as workload=seconds,...")
	workDir := fset.String("work-dir", ".bench_build/run", "scratch directory for logs, job stores and traces")
	served := fset.String("served", ".bench_build/bin/served", "cmd/served binary for serve-fleet")
	if err := fset.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workDir: *workDir, served: *served, slo: make(map[string]float64),
	}
	found := false
	for _, w := range workloads {
		found = found || w == cfg.workload
	}
	if !found {
		return config{}, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("-seconds must be at least 1")
	}
	for _, kv := range strings.Split(*slo, ",") {
		k, v, ok := strings.Cut(kv, "=")
		s, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil || s <= 0 {
			return config{}, fmt.Errorf("bad -slo entry %q", kv)
		}
		cfg.slo[k] = s
	}
	if _, ok := cfg.slo[cfg.workload]; !ok {
		return config{}, fmt.Errorf("-slo has no limit for %s", cfg.workload)
	}
	return cfg, nil
}

func run(ctx context.Context, cfg config) (*report, error) {
	rep := &report{cfg: cfg, values: make(map[string]float64), naWhy: make(map[string]string), labels: make(map[string]string)}
	rep.host = readHost()
	var err error
	switch cfg.workload {
	case "tune-bao":
		err = runTune(ctx, cfg, baoSpec, rep)
	case "tune-autotvm":
		err = runTune(ctx, cfg, autotvmSpec, rep)
	case "serve-fleet":
		err = runServe(ctx, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	if _, ok := rep.values["peak_rss_mb"]; !ok {
		rep.set("peak_rss_mb", selfPeakRSSMB())
	}
	if cfg.trace {
		tf := rep.trace
		tf.Workload, tf.Seed, tf.Host, tf.Notes = cfg.workload, cfg.seed, rep.host, rep.notes
		tf.SelfTimes = selfTimes(tf.Spans)
		tf.Metrics = make(map[string]any, len(perLayer))
		for _, m := range perLayer {
			tf.Metrics[m.name] = rep.values[m.name]
		}
		path, err := writeTrace(filepath.Join(cfg.workDir, "traces"), *tf)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		rep.tracePath = path
	}
	return rep, nil
}

// hostFacts describe the machine and code a report was made on.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // PERFBENCH_COMMIT, which run.sh sets in a git checkout
	SourceSHA  string `json:"source_sha256"`
}

func readHost() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	h.SourceSHA = sourceDigest(".")
	return h
}

// sourceDigest hashes the Go sources and module files under root, so a
// report names the code it measured even where no version control is.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		_, _ = h.Write(data) // hash.Hash.Write never fails
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// A timed window during which the hypervisor gave more than maxSteal of
// this machine's CPU time to other guests is measured again, up to
// maxWindows windows in all; the last one counts. Figures from such a
// window measure the host, not the program.
const (
	maxSteal   = 0.05
	maxWindows = 3
)

// stealSample is the machine's cumulative CPU ticks, all and stolen, as
// /proc/stat counts them.
type stealSample struct {
	steal, total uint64
	ok           bool
}

func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{} // no /proc: steal is not measured
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return stealSample{}
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	s.ok = true
	return s
}

// retryStolen notes how much CPU time was stolen since the window began
// and reports whether the window should be measured again, which it is
// only while ctx leaves room for another window as long as the last one
// and the work after it.
func retryStolen(ctx context.Context, rep *report, since stealSample, window int, last time.Duration) bool {
	now := readSteal()
	if !since.ok || !now.ok || now.total <= since.total {
		return false
	}
	share := float64(now.steal-since.steal) / float64(now.total-since.total)
	rep.note("window %d: the host stole %.1f%% of CPU time", window, 100*share)
	if share <= maxSteal || window >= maxWindows {
		return false
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 3*last {
		rep.note("window %d: more than %.0f%% stolen, but no time is left to measure it again", window, 100*maxSteal)
		return false
	}
	rep.note("window %d is measured again: more than %.0f%% stolen", window, 100*maxSteal)
	return true
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// report collects one invocation's metrics, notes and failures.
type report struct {
	cfg       config
	host      hostFacts
	values    map[string]float64
	naWhy     map[string]string // metric → why it does not apply here
	labels    map[string]string // metric → how it was derived
	notes     []string
	failures  []string
	attempted int
	failed    int
	trace     *traceFile
	tracePath string
}

func (r *report) set(name string, v float64)   { r.values[name] = v }
func (r *report) label(name, how string)       { r.labels[name] = how }
func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// na marks a metric that does not apply to the workload; it reports 0.
func (r *report) na(name, why string) {
	r.naWhy[name] = why
	if _, ok := r.values[name]; !ok {
		r.values[name] = 0
	}
}

// fail counts one failed operation.
func (r *report) fail(format string, a ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable report and then the JSON result line.
// It returns whether every output was correct.
func (r *report) print(w *os.File) bool {
	h := r.host
	fmt.Fprintf(w, "perfbench %s seed %d, %s timed window, trace %v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(w, "host: NumCPU %d, GOMAXPROCS %d, %s, commit %s, sources %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceSHA)
	if h.NumCPU == 1 {
		fmt.Fprintln(w, "host: 1 CPU — parallel overlap and cross-task speedup are no-ops here, not results")
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-30s %14.6g %s   (%d of %d operations)\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	// Untraced runs also print the per-layer figures they have, such as the
	// deployed latency variance, for information.
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range group {
			v, ok := r.values[m.name]
			if !ok && !r.cfg.trace {
				continue
			}
			extra := ""
			if why, ok := r.naWhy[m.name]; ok {
				extra = "   n/a: " + why
			} else if how, ok := r.labels[m.name]; ok {
				extra = "   " + how
			}
			fmt.Fprintf(w, "%-30s %14.6g %s%s\n", m.name, v, m.unit, extra)
		}
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	if r.tracePath != "" {
		fmt.Fprintln(w, "trace:", r.tracePath)
		for _, st := range r.trace.SelfTimes {
			fmt.Fprintf(w, "  span %-24s n=%-7d total %9.3f s  self %9.3f s\n", st.Name, st.Count, st.TotalS, st.SelfS)
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return false
	}
	fmt.Fprintln(w, string(buf))
	return res.Correct
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// tail is the highest order statistic with at least 10 samples above it.
// Below 20 samples that statistic would not exceed the median, so the
// maximum stands in for it.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 20 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

// tailLabel names the percentile tail reports for n samples.
func tailLabel(n int) string {
	if n < 20 {
		return fmt.Sprintf("maximum of %d", n)
	}
	return fmt.Sprintf("p%.1f of %d", 100*float64(n-10)/float64(n), n)
}

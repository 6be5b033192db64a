package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/job"
	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/stats"
)

// fleetRate is the serve-fleet arrival rate in jobs per second: an open
// loop, fixed well below what the daemon completes on a 2-CPU host (the
// daemon is busy about a fifth of the time), so queues stay short and
// latency measures the daemon, not a backlog.
const fleetRate = 6.0

// fleetTemplates is the serve-fleet job mix. Every job is cheap, so
// queueing, store writes and checkpoints, the shared measurement cache and
// SSE carry the time rather than tuner kernels. The "hot" and "atvm"
// templates are recurring jobs with a fixed explicit seed: all their jobs
// are the same tuning problem and hit the shared cache after the first.
// The "cold" template has seed 0, so each job's seed derives from its ID,
// which carries the workload seed, and its measurements miss. The workload
// seed also draws the arrival times and which template each job takes.
func fleetTemplates(seed int64) []fleet.Template {
	base := job.Spec{
		Model: "mobilenet-v1", Tuner: "random", Device: "gtx1080ti", Ops: "conv",
		Budget: 64, EarlyStop: -1, PlanSize: 32, Runs: 50, Workers: 1,
		TaskConcurrency: 1, BudgetPolicy: "uniform", CheckpointEvery: 1024,
	}
	hot := base
	hot.Seed = 7001
	atvm := base
	atvm.Tuner, atvm.Budget, atvm.Seed = "autotvm", 64, 7002
	cold := base
	cold.Seed = 0
	return []fleet.Template{
		{Name: "hot", Spec: hot, Weight: 2},
		{Name: "atvm", Spec: atvm, Weight: 2},
		{Name: fmt.Sprintf("cold-s%d", seed), Spec: cold, Weight: 3},
	}
}

// poissonFleet draws a Poisson fleet with exactly fleetRate*window arrivals
// inside the window: n+1 exponential gaps are drawn and the first n
// arrivals rescaled so that the (n+1)-th lands at the window's end, which
// is the Poisson process conditioned on its arrival count. A fixed count
// keeps runs comparable; the arrival times stay random.
func poissonFleet(seed int64, window time.Duration) ([]fleet.Job, error) {
	n := int(fleetRate*window.Seconds() + 0.5)
	jobs, err := fleet.Generate(fleet.Options{
		Jobs: n + 1, Seed: seed, Arrival: fleet.ArrivalPoisson, Period: window,
		Templates: fleetTemplates(seed),
	})
	if err != nil {
		return nil, err
	}
	scale := float64(window) / float64(jobs[n].Offset)
	jobs = jobs[:n]
	for i := range jobs {
		jobs[i].Offset = time.Duration(float64(jobs[i].Offset) * scale)
	}
	return jobs, nil
}

// effective is the spec a daemon runs for a fleet job: normalized, with the
// seed resolved from the job ID when the template leaves it 0.
func effective(fj fleet.Job) job.Spec {
	s := fj.Spec.Normalized()
	s.Seed = job.EffectiveSeed(fj.ID, s)
	return s
}

func specKey(s job.Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("%+v", s) // unreachable: Spec is plain data
	}
	return string(b)
}

// references runs job.Run once per distinct effective spec of the fleet and
// returns each one's record stream, the bytes every served SSE stream of
// that spec must reproduce.
func references(ctx context.Context, jobs []fleet.Job) (map[string][]byte, error) {
	var specs []job.Spec
	seen := make(map[string]bool)
	for _, fj := range jobs {
		s := effective(fj)
		if k := specKey(s); !seen[k] {
			seen[k] = true
			specs = append(specs, s)
		}
	}
	streams := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	par.For(len(specs), runtime.NumCPU(), func(i int) {
		var buf bytes.Buffer
		_, errs[i] = job.Run(ctx, specs[i], job.RunOptions{OnRecordLine: func(_ record.Record, line []byte) { buf.Write(line) }})
		streams[i] = buf.Bytes()
	})
	out := make(map[string][]byte, len(specs))
	for i, s := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for %s: %w", specKey(s), errs[i])
		}
		out[specKey(s)] = streams[i]
	}
	return out, nil
}

// daemon is a running cmd/served child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	store string
	gc    gcTally
	// started is when the process was started, the origin of gctrace times.
	started time.Time
	done    chan struct{} // closed when the child's stderr reaches EOF
}

// gcTally reads a Go process's GODEBUG=gctrace=1 lines. The heap bytes
// allocated up to the end of cycle i are the sum over cycles k <= i of the
// heap size at GC end minus the live heap cycle k-1 left; the figures are
// whole megabytes.
type gcTally struct {
	mu     sync.Mutex
	live   float64
	cycles []gcCycle
}

// gcCycle is the allocation total at the end of one GC cycle, and when the
// cycle ran, as time since the process started.
type gcCycle struct {
	at      time.Duration
	allocMB float64
}

var gcLine = regexp.MustCompile(`^gc \d+ @([0-9.]+)s .* (\d+)->(\d+)->(\d+) MB`)

func (g *gcTally) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		// The regexp matched digits, so the parses cannot fail.
		at, _ := strconv.ParseFloat(m[1], 64)
		end, _ := strconv.ParseFloat(m[3], 64)
		live, _ := strconv.ParseFloat(m[4], 64)
		g.mu.Lock()
		prev := 0.0
		if len(g.cycles) > 0 {
			prev = g.cycles[len(g.cycles)-1].allocMB
		}
		g.cycles = append(g.cycles, gcCycle{at: time.Duration(at * float64(time.Second)), allocMB: prev + end - g.live})
		g.live = live
		g.mu.Unlock()
	}
}

// last returns the latest cycle; ok is false before the first one.
func (g *gcTally) last() (c gcCycle, n int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.cycles) == 0 {
		return gcCycle{}, 0, false
	}
	return g.cycles[len(g.cycles)-1], len(g.cycles), true
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startDaemon starts cmd/served on a loopback port over a fresh store and
// waits until it answers its health probe.
func startDaemon(ctx context.Context, bin, store string, concurrency int) (*daemon, error) {
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-store", store,
		"-concurrency", strconv.Itoa(concurrency), "-max-queue", "4096")
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, store: store, started: time.Now(), done: make(chan struct{})}
	go func() {
		d.gc.read(stderr)
		close(d.done)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := http.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_, _ = d.stop() // already failing; the start error is the one to report
			return nil, fmt.Errorf("daemon on %s never became healthy", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to shut down, kills it if it does not within ten
// seconds, and waits for it to exit.
func (d *daemon) stop() (*os.ProcessState, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a child that already exited is reaped below
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // escalation; Wait reports the outcome
		<-d.done
	}
	err := d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		err = nil // a signalled exit is the shutdown we asked for
	}
	return d.cmd.ProcessState, err
}

// fleetJob is one fleet job's client-side and daemon-side record.
type fleetJob struct {
	fleet.Job
	due, sent  time.Time
	submitDur  time.Duration
	status     job.Status
	accepted   bool
	finished   bool
	streamAt   time.Time
	streamDur  time.Duration
	streamSize int
	lines      int
	dataBytes  int
	streamOK   bool // the SSE stream equals the job's reference
}

// runServe measures the serve-fleet workload.
func runServe(ctx context.Context, cfg config, rep *report) error {
	nproc := runtime.NumCPU()
	jobs, err := poissonFleet(cfg.seed, cfg.seconds)
	if err != nil {
		return err
	}
	n := len(jobs)
	dir := filepath.Join(cfg.workDir, cfg.workload)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// References first, outside the timed window.
	t0 := time.Now()
	refs, err := references(ctx, jobs)
	if err != nil {
		return err
	}
	rep.note("%d fleet jobs at %.3g jobs/s (Poisson), %d distinct reference streams computed in %.1f s",
		n, fleetRate, len(refs), time.Since(t0).Seconds())

	// Set-up: start the daemon on a fresh store, several times.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		d, err := startDaemon(ctx, cfg.served, filepath.Join(dir, fmt.Sprintf("setup%d", i)), nproc)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if _, err := d.stop(); err != nil {
			return fmt.Errorf("stopping set-up daemon: %w", err)
		}
	}

	var fr *fleetRun
	var tr *tracer
	for attempt := 1; ; attempt++ {
		tr = newTracer()
		steal := readSteal()
		t0 := time.Now()
		fr, err = runFleet(ctx, cfg.served, filepath.Join(dir, fmt.Sprintf("fleet%d", attempt)), jobs, refs, nproc)
		if err != nil {
			return err
		}
		if !retryStolen(ctx, rep, steal, attempt, time.Since(t0)) {
			break
		}
		// The outputs of a window measured again are still checked.
		for _, j := range fr.jobs {
			rep.attempted++
			if !j.accepted || !j.finished || j.status.State != job.StateDone || !j.streamOK {
				rep.fail("window %d: job %s was refused, failed or streamed wrong records", attempt, j.ID)
			}
		}
	}
	fj, cache, storeMB, d := fr.jobs, fr.cache, fr.storeMB, fr.d
	lastGC, cycles, gcOK := d.gc.last()

	// Check every served stream against its reference.
	var lat, walls, queue, runT, submit, streamRead, late, depLat, depVar []float64
	var lines, dataBytes, streamBytes, rejected, completed int
	var firstDue, lastFinish time.Time
	slo := cfg.slo[cfg.workload]
	met := 0
	for i := range fj {
		j := &fj[i]
		rep.attempted++
		if firstDue.IsZero() || j.due.Before(firstDue) {
			firstDue = j.due
		}
		late = append(late, ms(j.sent.Sub(j.due)))
		if !j.accepted {
			rejected++
			rep.fail("job %s refused", j.ID)
			continue
		}
		submit = append(submit, ms(j.submitDur))
		st := j.status
		if !j.finished || st.State != job.StateDone || st.StartedAt == nil || st.FinishedAt == nil || st.Result == nil {
			rep.fail("job %s ended %s %s", j.ID, st.State, st.Error)
			continue
		}
		if st.Seed != effective(j.Job).Seed {
			rep.fail("job %s ran seed %d, want %d", j.ID, st.Seed, effective(j.Job).Seed)
			continue
		}
		if !j.streamOK {
			rep.fail("job %s: SSE stream differs from job.Run of its spec", j.ID)
			continue
		}
		completed++
		l := st.FinishedAt.Sub(j.due).Seconds()
		lat = append(lat, l)
		if l <= slo {
			met++
		}
		walls = append(walls, st.FinishedAt.Sub(st.SubmittedAt).Seconds())
		queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds())
		runT = append(runT, st.FinishedAt.Sub(*st.StartedAt).Seconds())
		streamRead = append(streamRead, ms(j.streamDur))
		depLat = append(depLat, st.Result.LatencyMS)
		depVar = append(depVar, st.Result.Variance)
		lines += j.lines
		dataBytes += j.dataBytes
		streamBytes += j.streamSize
		if st.FinishedAt.After(lastFinish) {
			lastFinish = *st.FinishedAt
		}
	}
	if lt := tail(late); lt > 500 {
		rep.fail("generator fell behind: late tail %.0f ms; the run is invalid", lt)
	}
	if completed == 0 {
		return fmt.Errorf("no fleet job completed")
	}

	rep.set("wall_s", median(walls))
	rep.set("deployed_latency_ms", stats.Mean(depLat))
	rep.set("core.deployed_latency_var", stats.Mean(depVar))
	// Allocation per job: the total up to the last GC cycle over the jobs
	// finished by then. Allocation after the last cycle is not visible.
	gcJobs := 0
	for _, j := range fj {
		if j.finished && j.status.FinishedAt != nil && j.status.FinishedAt.Before(d.started.Add(lastGC.at)) {
			gcJobs++
		}
	}
	if !gcOK || gcJobs == 0 {
		return fmt.Errorf("daemon ran no GC cycle after a finished job; cannot estimate its allocation")
	}
	rep.set("alloc_mb", lastGC.allocMB/float64(gcJobs))
	rep.set("job_latency_p50_s", median(lat))
	rep.set("job_latency_tail_s", tail(lat))
	rep.set("slo_met_ratio", float64(met)/float64(len(fj)))
	rep.set("jobs_per_s", float64(completed)/lastFinish.Sub(firstDue).Seconds())
	rep.set("setup_s", median(setups))
	if ru, ok := fr.state.SysUsage().(*syscall.Rusage); ok {
		rep.set("peak_rss_mb", float64(ru.Maxrss)/1024)
	}
	rep.label("alloc_mb", fmt.Sprintf("daemon heap allocation per job, %d GC cycles over %d jobs", cycles, gcJobs))
	rep.label("peak_rss_mb", "of the daemon process")
	rep.label("wall_s", "median daemon submit-to-finish time per job")
	rep.label("deployed_latency_ms", "mean over the fleet's jobs")
	rep.label("core.deployed_latency_var", "mean over the fleet's jobs")
	rep.label("job_latency_tail_s", tailLabel(len(lat)))
	rep.note("%d of %d jobs completed, %d refused, each completed job's SSE stream identical to its job.Run reference; SLO %.3g s",
		completed, len(fj), rejected, slo)

	if !cfg.trace {
		return nil
	}
	for i := range fj {
		j := &fj[i]
		if !j.accepted || !j.finished || j.status.FinishedAt == nil || j.status.StartedAt == nil {
			continue
		}
		st := j.status
		root := tr.add(span{Name: "job", Job: j.ID, Start: tr.at(j.due), End: tr.at(*st.FinishedAt)})
		tr.add(span{Parent: root, Name: "client.submit", Job: j.ID, Start: tr.at(j.sent), End: tr.at(j.sent.Add(j.submitDur))})
		tr.add(span{Parent: root, Name: "job.queue", Job: j.ID, Start: tr.at(st.SubmittedAt), End: tr.at(*st.StartedAt)})
		tr.add(span{Parent: root, Name: "job.run", Job: j.ID, Start: tr.at(*st.StartedAt), End: tr.at(*st.FinishedAt)})
		tr.add(span{Name: "client.stream_read", Job: j.ID, Start: tr.at(j.streamAt), End: tr.at(j.streamAt.Add(j.streamDur))})
	}
	rep.set("serve.submit_p50_ms", median(submit))
	rep.set("serve.submit_tail_ms", tail(submit))
	rep.set("serve.rejected", float64(rejected))
	rep.set("serve.stream_read_p50_ms", median(streamRead))
	rep.set("serve.stream_bytes", float64(streamBytes))
	rep.set("job.queue_wait_p50_s", median(queue))
	rep.set("job.queue_wait_tail_s", tail(queue))
	rep.set("job.run_p50_s", median(runT))
	rep.set("job.run_tail_s", tail(runT))
	rep.set("job.backlog_max", float64(backlogMax(fj)))
	rep.set("job.store_mb", storeMB)
	rep.set("client.late_tail_ms", tail(late))
	rep.set("record.lines", float64(lines))
	rep.set("record.bytes", float64(dataBytes))
	if cache.Hits+cache.Misses > 0 {
		rep.set("backend.cache_hit_ratio", float64(cache.Hits)/float64(cache.Hits+cache.Misses))
	}
	rep.set("backend.cache_misses", float64(cache.Misses))
	rep.set("backend.cache_evictions", float64(cache.Evictions))
	rep.set("trace.overhead_s", tr.recording.Seconds())
	rep.label("trace.overhead_s", "time spent recording client-side spans; the daemon runs untraced")
	for _, m := range perLayer {
		if _, ok := rep.values[m.name]; !ok {
			rep.na(m.name, "inside the daemon; its layers are not traced from outside")
		}
	}
	rep.trace = &traceFile{Spans: tr.snapshot()}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fleetRun is what one pass of the fleet through a fresh daemon leaves.
type fleetRun struct {
	d       *daemon
	state   *os.ProcessState
	jobs    []fleetJob
	cache   backend.SharedCacheStats
	storeMB float64
}

// runFleet starts a daemon on a fresh store, drives the fleet through it,
// and stops it.
func runFleet(ctx context.Context, bin, store string, jobs []fleet.Job, refs map[string][]byte, nproc int) (*fleetRun, error) {
	d, err := startDaemon(ctx, bin, store, nproc)
	if err != nil {
		return nil, err
	}
	fj, cache, err := drive(ctx, d.base, jobs, refs, nproc)
	if err != nil {
		_, _ = d.stop() // the drive error is the one to report
		return nil, err
	}
	storeMB := dirMB(d.store)
	state, err := d.stop()
	if err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	return &fleetRun{d: d, state: state, jobs: fj, cache: cache, storeMB: storeMB}, nil
}

// backlogMax is the most jobs ever admitted but not yet started.
func backlogMax(fj []fleetJob) int {
	type ev struct {
		t     time.Time
		delta int
	}
	var evs []ev
	for _, j := range fj {
		if j.accepted && j.status.StartedAt != nil {
			evs = append(evs, ev{j.status.SubmittedAt, 1}, ev{*j.status.StartedAt, -1})
		}
	}
	sort.Slice(evs, func(i, k int) bool {
		if evs[i].t.Equal(evs[k].t) {
			return evs[i].delta < evs[k].delta
		}
		return evs[i].t.Before(evs[k].t)
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.delta
		best = max(best, cur)
	}
	return best
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished entry does not count
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// drive submits the fleet on its schedule and follows every accepted job
// to its end: one submitter and max(1, nproc-1) followers share at most
// max(2, nproc) connections. A follower polls its job's status until the
// job is terminal, then drains the job's SSE stream from offset 0 and
// checks it against the reference — while later jobs are still running.
func drive(ctx context.Context, base string, jobs []fleet.Job, refs map[string][]byte, nproc int) ([]fleetJob, backend.SharedCacheStats, error) {
	followers := max(1, nproc-1)
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     followers + 1,
		MaxIdleConnsPerHost: followers + 1,
	}}
	defer client.CloseIdleConnections()

	fj := make([]fleetJob, len(jobs))
	queue := make(chan int, len(jobs)) // one slot per job: the submitter never blocks
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for w := 0; w < followers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if err := follow(ctx, client, base, &fj[i], refs[specKey(effective(fj[i].Job))]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}

	start := time.Now()
	var submitErr error
	for i, j := range jobs {
		fj[i].Job = j
		fj[i].due = start.Add(j.Offset)
		if d := time.Until(fj[i].due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			submitErr = ctx.Err()
			break
		}
		fj[i].sent = time.Now()
		accepted, err := submit(ctx, client, base, j)
		fj[i].submitDur = time.Since(fj[i].sent)
		if err != nil {
			submitErr = err
			break
		}
		fj[i].accepted = accepted
		if accepted {
			queue <- i
		}
	}
	close(queue)
	wg.Wait()
	if submitErr != nil {
		return nil, backend.SharedCacheStats{}, submitErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, backend.SharedCacheStats{}, err
		}
	}
	var st struct {
		Cache backend.SharedCacheStats `json:"shared_cache"`
	}
	body, err := get(ctx, client, base+"/v1/stats")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return fj, st.Cache, err
}

// submit posts one job; it reports false when the daemon refused it (429).
func submit(ctx context.Context, client *http.Client, base string, j fleet.Job) (bool, error) {
	body, err := json.Marshal(job.Submit{ID: j.ID, Spec: j.Spec})
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // drained for connection reuse; only the status matters
	switch resp.StatusCode {
	case http.StatusCreated:
		return true, nil
	case http.StatusTooManyRequests:
		return false, nil
	default:
		return false, fmt.Errorf("submit %s: %d: %s", j.ID, resp.StatusCode, msg)
	}
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// follow waits for j to end, then drains and checks its SSE stream. A
// stream that differs from its reference leaves streamOK false.
func follow(ctx context.Context, client *http.Client, base string, j *fleetJob, want []byte) error {
	for {
		body, err := get(ctx, client, base+"/v1/jobs/"+j.ID)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &j.status); err != nil {
			return fmt.Errorf("status of %s: %w", j.ID, err)
		}
		if j.status.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
	j.finished = true
	if j.status.State != job.StateDone {
		return nil
	}
	j.streamAt = time.Now()
	body, err := get(ctx, client, base+"/v1/jobs/"+j.ID+"/stream")
	j.streamDur = time.Since(j.streamAt)
	if err != nil {
		return err
	}
	j.streamSize = len(body)
	data, lines, err := sseRecords(body)
	if err != nil {
		return fmt.Errorf("stream of %s: %w", j.ID, err)
	}
	j.lines = lines
	j.dataBytes = len(data)
	j.streamOK = bytes.Equal(data, want)
	return nil
}

// sseRecords re-joins a finished SSE stream's record events into JSON-lines
// form — the byte layout of the record log — and checks that it ends with
// the done event.
func sseRecords(body []byte) ([]byte, int, error) {
	var out bytes.Buffer
	lines := 0
	event := ""
	done := false
	for _, line := range bytes.Split(body, []byte("\n")) {
		switch {
		case len(line) == 0:
			event = ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
			done = done || event == "done"
		case bytes.HasPrefix(line, []byte("data: ")):
			if event == "record" {
				out.Write(line[len("data: "):])
				out.WriteByte('\n')
				lines++
			}
		case bytes.HasPrefix(line, []byte("id: ")):
		default:
			return nil, 0, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
	if !done {
		return nil, 0, fmt.Errorf("stream ended without a done event")
	}
	return out.Bytes(), lines, nil
}

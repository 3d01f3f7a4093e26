// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload as a closed loop — one client, co-design jobs back to back — for a
// fixed time, checks every job's output, and prints each metric by name with
// its unit; the last line of standard output is the JSON result.
//
//	perfbench --workload codesign-default --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from uninstrumented jobs; --trace
// 1 runs traced jobs beside untraced ones of the same seed and reports the
// per-layer split. Workloads and metrics are described in METRICS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

const (
	minJobs = 3 // jobs per untraced run, even past --seconds
	// A set-up takes well under a millisecond, so one is mostly noise, and
	// set-ups timed together at the start of a run see only that moment's
	// host. An untraced run therefore times a round of set-ups before its
	// first job and another after every job that ends at least setupEvery
	// seconds of jobs after the last round; setup_s is the median over all.
	setupRound = 50
	setupEvery = 1.0
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed; job seeds derive from it")
	seconds := fs.Float64("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1 reports the per-layer split from traced jobs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	var res result
	if *trace == 0 {
		res = measure(w, *seed, *seconds, stderr)
	} else {
		res = traced(w, *seed, *seconds, stderr)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared is one metric of BENCHMARK.json: its name and unit.
type declared struct{ name, unit string }

var endToEnd = []declared{
	{"job_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"}, {"peak_rss_mb", "MB"},
	{"setup_s", "s"}, {"evals_per_s", "1/s"}, {"frontier_hv", "vol"},
	{"missions", "missions"}, {"ok_frac", "frac"},
}

var perLayer = []declared{
	{"core.phase1_s", "s"}, {"core.phase2_s", "s"}, {"core.phase3_s", "s"}, {"core.unattributed_s", "s"},
	{"bayesopt.init_s", "s"}, {"bayesopt.iter_ms", "ms"}, {"bayesopt.self_s", "s"}, {"bayesopt.iterations", "count"},
	{"gp.fit_ms", "ms"}, {"gp.fit_n", "count"}, {"gp.dims", "count"}, {"gp.predict_us", "us"},
	{"pareto.front_size", "count"}, {"pareto.hypervolume_us", "us"}, {"pareto.contribution_us", "us"},
	{"pareto.contribution_allocs", "count"}, {"pareto.nondominated_ms", "ms"}, {"pareto.nondominated_n", "count"},
	{"dse.sample_ms", "ms"}, {"dse.evals", "count"}, {"dse.eval_us", "us"},
	{"dse.eval_tail_us", "us"}, {"dse.eval_tail_pct", "%"}, {"dse.eval_busy_frac", "frac"},
	{"dse.cache_hit_ratio", "frac"}, {"dse.cache_lookups", "count"}, {"dse.post_ms", "ms"},
	{"dse.skips", "count"}, {"dse.other_s", "s"},
	{"hw.estimate_us", "us"}, {"hw.estimate_n", "count"}, {"policy.build_us", "us"}, {"policy.build_n", "count"},
	{"train.env_steps", "count"}, {"train.eval_env_steps", "count"}, {"nn.forward_batch_inputs", "count"},
	{"train.rollout_episode_ms", "ms"}, {"train.rollout_episode_steps", "count"},
	{"train.dqn_episode_ms", "ms"}, {"train.dqn_episode_steps", "count"}, {"train.run_s", "s"},
	{"train.run_s_max", "s"}, {"pool.busy_frac", "frac"},
	{"grid.job_rtt_ms", "ms"}, {"grid.rpc_server_us", "us"}, {"grid.wait_ms", "ms"}, {"grid.rpcs_per_job", "count"},
	{"grid.empty_lease_frac", "frac"}, {"grid.wire_kb", "KiB"}, {"grid.steals", "count"},
	{"grid.reclaims", "count"}, {"grid.overhead_s", "s"}, {"grid.local_job_s", "s"},
	{"trace.job_s", "s"}, {"trace.untraced_job_s", "s"}, {"trace.overhead_frac", "frac"},
}

// metricsFor keeps exactly the declared metrics, with their units; a figure
// the run did not produce (a layer the workload does not use) reads 0. A
// figure under an undeclared name is a bug in this program.
func metricsFor(decl []declared, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(decl))
	for name := range vals {
		if !isDeclared(decl, name) {
			panic(fmt.Sprintf("perfbench: figure %q is not declared", name))
		}
	}
	for _, d := range decl {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func isDeclared(decl []declared, name string) bool {
	for _, d := range decl {
		if d.name == name {
			return true
		}
	}
	return false
}

// jobStat is one untraced job's measurements.
type jobStat struct {
	wall, cpu, allocMB, peakMB float64
	misses                     int64
	hv, missions               float64
}

// measure is the untraced run: set up, then run jobs back to back for the
// measurement time, checking each, with rounds of set-ups between them.
func measure(w *workload, seed int64, seconds float64, stderr io.Writer) result {
	ctx := context.Background()
	var setups []float64
	e, err := setUps(w, setupRound, &setups)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return result{Attempted: 1, Failed: 1, Metrics: metricsFor(endToEnd, nil)}
	}
	defer e.close()

	var jobs []jobStat
	var costs []float64
	attempted, failed := 0, 0
	elapsed, lastRound := 0.0, 0.0 // seconds of jobs, excluding set-up rounds
	for k := 0; ; k++ {
		if k >= minJobs && (elapsed >= seconds || elapsed+median(costs) > seconds) {
			break
		}
		attempted++
		t0 := time.Now()
		js, err := measureJob(ctx, w, e, w.jobSeed(seed, k))
		costs = append(costs, time.Since(t0).Seconds())
		elapsed += costs[len(costs)-1]
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "perfbench: %s job %d: %v\n", w.name, k, err)
			continue
		}
		fmt.Fprintf(stderr, "perfbench: %s job %d (seed %d): %.3f s\n", w.name, k, w.jobSeed(seed, k), js.wall)
		jobs = append(jobs, js)
		if elapsed-lastRound >= setupEvery {
			lastRound = elapsed
			extra, err := setUps(w, setupRound, &setups)
			if err != nil {
				attempted++ // a failed set-up counts as one more failed attempt
				failed++
				fmt.Fprintln(stderr, "perfbench: setup:", err)
				continue
			}
			extra.close()
		}
	}

	vals := endToEndFigures(jobs, setups, attempted, failed)
	walls := make([]float64, len(jobs))
	for i, j := range jobs {
		walls[i] = j.wall
	}
	fmt.Fprintf(stderr, "perfbench: %s: %d jobs, job_s median %.4f (%.4f..%.4f); %d set-ups, setup_s median %.6f\n",
		w.name, len(jobs), vals["job_s"], percentile(walls, 0), percentile(walls, 100), len(setups), vals["setup_s"])
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricsFor(endToEnd, vals)}
}

// setUps sets up n times, closing every environment but the last, which it
// returns, and appends each set-up's time to times.
func setUps(w *workload, n int, times *[]float64) (*env, error) {
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, err = setup(w)
		if err != nil {
			return nil, err
		}
		*times = append(*times, time.Since(start).Seconds())
	}
	return e, nil
}

// endToEndFigures reduces a run to the end-to-end metrics; every per-job
// figure is the median over the run's jobs.
func endToEndFigures(jobs []jobStat, setups []float64, attempted, failed int) map[string]float64 {
	var walls, cpus, allocs, peaks, rates, hvs, missions []float64
	for _, j := range jobs {
		walls = append(walls, j.wall)
		cpus = append(cpus, j.cpu)
		allocs = append(allocs, j.allocMB)
		peaks = append(peaks, j.peakMB)
		rates = append(rates, float64(j.misses)/j.wall)
		hvs = append(hvs, j.hv)
		missions = append(missions, j.missions)
	}
	return map[string]float64{
		"job_s":       median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": median(peaks),
		"setup_s":     median(setups),
		"evals_per_s": median(rates),
		"frontier_hv": median(hvs),
		"missions":    median(missions),
		"ok_frac":     ratio(float64(attempted-failed), float64(attempted)),
	}
}

// measureJob runs and checks one untraced job.
func measureJob(ctx context.Context, w *workload, e *env, seed int64) (jobStat, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := watchResident()
	cpu0 := cpuSeconds()
	start := time.Now()
	o, err := w.run(ctx, e, seed, nil)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	peakMB := mem.stop()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return jobStat{}, err
	}
	js := jobStat{wall: wall, cpu: cpu, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		peakMB: peakMB, misses: o.res.CacheMisses}
	var digest string
	digest, js.hv, js.missions, err = check(ctx, o)
	if err != nil {
		return jobStat{}, fmt.Errorf("check: %w", err)
	}
	if w.grid {
		local, err := runGridLocal(ctx, e, seed)
		if err != nil {
			return jobStat{}, fmt.Errorf("local reference: %w", err)
		}
		if evalDigest(local.Pareto()) != digest {
			return jobStat{}, fmt.Errorf("grid frontier differs from the local run's")
		}
	}
	return js, nil
}

// traced is the per-layer run: pairs of an untraced and a traced job of the
// same seed, then kernel replays on the last traced job's inputs.
func traced(w *workload, seed int64, seconds float64, stderr io.Writer) result {
	ctx := context.Background()
	e, err := setup(w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return result{Attempted: 1, Failed: 1, Metrics: metricsFor(perLayer, nil)}
	}
	defer e.close()
	var figures []map[string]float64
	var last *outcome
	var costs []float64
	attempted, failed := 0, 0
	start := time.Now()
	for k := 0; ; k++ {
		elapsed := time.Since(start).Seconds()
		if k >= 1 && (elapsed >= seconds || elapsed+median(costs) > seconds) {
			break
		}
		attempted++
		t0 := time.Now()
		m, o, err := tracePair(ctx, w, e, w.jobSeed(seed, k))
		costs = append(costs, time.Since(t0).Seconds())
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "perfbench: %s traced job %d: %v\n", w.name, k, err)
			continue
		}
		figures = append(figures, m)
		last = o
	}
	vals := medianMaps(figures)
	if last != nil {
		rm, err := replays(last)
		if err != nil {
			failed++
			fmt.Fprintln(stderr, "perfbench: replay:", err)
		}
		for k, v := range rm {
			vals[k] = v
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricsFor(perLayer, vals)}
}

// tracePair runs one seed untraced and then traced, checks both and that
// their frontiers agree bitwise, and returns the traced job's figures.
func tracePair(ctx context.Context, w *workload, e *env, seed int64) (map[string]float64, *outcome, error) {
	runtime.GC()
	start := time.Now()
	u, err := w.run(ctx, e, seed, nil)
	untraced := time.Since(start).Seconds()
	if err != nil {
		return nil, nil, err
	}
	want, _, _, err := check(ctx, u)
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}

	runtime.GC()
	tr := newJobTrace()
	o, err := w.run(ctx, e, seed, tr)
	wall := tr.now()
	if err != nil {
		return nil, nil, err
	}
	got, _, _, err := check(ctx, o)
	if err != nil {
		return nil, nil, fmt.Errorf("traced check: %w", err)
	}
	if got != want {
		return nil, nil, fmt.Errorf("traced frontier differs from the untraced run's")
	}
	m, err := tr.layers(o, wall)
	if err != nil {
		return nil, nil, err
	}
	m["trace.job_s"] = wall
	m["trace.untraced_job_s"] = untraced
	m["trace.overhead_frac"] = (wall - untraced) / untraced
	if w.grid {
		start := time.Now()
		local, err := runGridLocal(ctx, e, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("local reference: %w", err)
		}
		m["grid.local_job_s"] = time.Since(start).Seconds()
		m["grid.overhead_s"] = untraced - m["grid.local_job_s"]
		if evalDigest(local.Pareto()) != want {
			return nil, nil, fmt.Errorf("grid frontier differs from the local run's")
		}
	}
	return m, o, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// residentWatch samples one job's resident memory as the Go runtime accounts
// it (everything mapped minus heap released to the OS) every 5 ms, and
// reports the job's sustained peak: the 90th percentile of the samples. The
// plain maximum is set by spikes shorter than a tenth of the job; repeating
// one codesign-train job, the maximum ranged 42-61 MB and this figure
// 24.5-25.7 MB. The kernel's high-water mark (getrusage's maxrss) cannot be
// reset between jobs at all.
type residentWatch struct {
	quit, done chan struct{}
	samples    []float64 // MB
}

func watchResident() *residentWatch {
	w := &residentWatch{quit: make(chan struct{}), done: make(chan struct{})}
	ms := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			w.samples = append(w.samples, float64(ms[0].Value.Uint64()-ms[1].Value.Uint64())/1e6)
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch and returns the sustained peak in MB.
func (w *residentWatch) stop() float64 {
	close(w.quit)
	<-w.done
	return percentile(w.samples, 90)
}

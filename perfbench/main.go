// Command perfbench is elastisched's benchmark. It builds one workload's
// inputs from a seed, drives the simulator through its public entry points
// for a fixed wall-clock budget, verifies every output, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host time measured
// untraced); with --trace 1 it alternates untraced and traced passes and
// reports per-layer metrics, with the span log written under
// .bench_build/trace/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 5

// endToEndMetrics lists the end-to-end metrics and their units, in the
// order BENCHMARK.json declares them.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"decide_p50_us", "us"},
	{"decide_p99_us", "us"},
	{"alloc_mb", "MB"},
	{"allocs_per_job", "count"},
	{"peak_rss_mb", "MB"},
	{"sim_mean_wait_s", "s"},
	{"sim_util", "ratio"},
	{"sim_slowdown", "ratio"},
	{"sim_makespan_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: paper-sweep, faults-ckpt, sharded-skew, online-session")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured wall-clock budget")
	traced := fs.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	fmt.Fprintf(stdout, "# workload %s seed %d\n", def.name, *seed)
	fmt.Fprintf(stdout, "# host %s\n", hostFingerprint())

	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := now()
		inst, err = def.setup(*seed, def.full)
		setups = append(setups, since(t0))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
	}
	b := bench{name: def.name, seed: *seed, sc: def.full, inst: inst, budget: *seconds, setup: median(setups), out: stdout}
	var res result
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.timed()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
		res.Failed++
		res.Attempted = max(res.Attempted, 1)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type bench struct {
	name   string
	seed   int64
	sc     scale
	inst   instance
	budget float64 // seconds
	setup  float64 // median set-up seconds
	out    io.Writer
}

// timedPass is one untraced pass with its wall time.
type timedPass struct {
	out  *passOut
	wall float64
}

// checkSame reports the passes whose simulated output differs from the
// first pass's: every pass replays the same inputs, so any difference is
// a determinism failure.
func checkSame(ref *passOut, p *passOut) error {
	if len(p.sums) != len(ref.sums) {
		return fmt.Errorf("pass produced %d runs, first pass %d", len(p.sums), len(ref.sums))
	}
	for i := range p.sums {
		if p.sums[i] != ref.sums[i] {
			return fmt.Errorf("run %d summary differs from the first pass", i)
		}
	}
	if p.events != ref.events || p.cycles != ref.cycles || p.ecc != ref.ecc {
		return errors.New("event, cycle or ECC counts differ from the first pass")
	}
	for i := range p.clusterSums {
		if p.clusterSums[i] != ref.clusterSums[i] {
			return fmt.Errorf("cluster summary %d differs from the first pass", i)
		}
	}
	return nil
}

// verifyAll runs the verification pass over ref and folds in the
// determinism check of the other passes.
func (b *bench) verifyAll(res *result, passes []*passOut) verdict {
	t0 := now()
	v := b.inst.verify(passes[0])
	for i, p := range passes[1:] {
		if err := checkSame(passes[0], p); err != nil {
			v.fail("pass %d: %v", i+2, err)
		}
	}
	for _, p := range passes {
		res.Attempted += p.runs
	}
	res.Attempted += v.attempted
	res.Failed += v.failed
	res.Correct = v.failed == 0
	fmt.Fprintf(b.out, "# verification: %d runs checked in %.2f s, %d failed, %d migration group findings set aside; schedule digest %s\n",
		v.attempted, since(t0), v.failed, v.setAside, v.digest)
	for _, p := range v.problems {
		fmt.Fprintf(b.out, "# verification problem: %s\n", p)
	}
	return v
}

// timed is the untraced end-to-end run. Each repetition runs one pass
// and, for workloads whose pass has no online arrivals, the latency probe.
// Throughput sums each unit's median time over the passes, and latency
// takes the median over repetitions of each repetition's percentile, so a
// burst of host interference in one repetition does not move either.
func (b *bench) timed() (result, error) {
	res := result{Metrics: map[string]metric{}}
	var passes []timedPass
	var p50s, p99s []float64
	var allocBytes, allocs uint64
	samples := 0
	start := now()
	for len(passes) == 0 || since(start) < b.budget {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		out, err := b.inst.pass(nil, false)
		if err != nil {
			return res, err
		}
		passes = append(passes, timedPass{out, since(t0)})
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs

		lat := out.latency
		if len(lat) == 0 {
			if lat, err = b.inst.probe(); err != nil {
				return res, fmt.Errorf("latency probe: %w", err)
			}
		}
		sort.Float64s(lat)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		samples = len(lat)
	}
	rss := peakRSSMB()

	outs := make([]*passOut, len(passes))
	jobs := 0
	for i, p := range passes {
		outs[i] = p.out
		jobs += p.out.jobs
	}
	b.verifyAll(&res, outs)

	ref := passes[0].out
	unitJobs, unitWall := 0, 0.0
	for u, ut := range ref.units {
		walls := make([]float64, len(passes))
		for i, p := range passes {
			walls[i] = p.out.units[u].wall
		}
		unitJobs += ut.jobs
		unitWall += median(walls)
	}
	runs := float64(len(ref.sums))
	vals := map[string]float64{
		"setup_s":        b.setup,
		"jobs_per_s":     float64(unitJobs) / unitWall,
		"decide_p50_us":  median(p50s),
		"decide_p99_us":  median(p99s),
		"alloc_mb":       float64(allocBytes) / 1e6 / float64(len(passes)),
		"allocs_per_job": float64(allocs) / float64(jobs),
		"peak_rss_mb":    rss,
	}
	for _, s := range ref.sums {
		vals["sim_mean_wait_s"] += s.MeanWait / runs
		vals["sim_util"] += s.Utilization / runs
		vals["sim_slowdown"] += s.Slowdown / runs
		vals["sim_makespan_s"] += float64(s.WindowEnd-s.WindowStart) / runs
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}

	fmt.Fprintf(b.out, "# timed: %d passes, %d runs and %d jobs per pass, pass walls %.3f s\n",
		len(passes), ref.runs, ref.jobs, passWalls(passes))
	fmt.Fprintf(b.out, "# decide latency: median of %d repetitions of %d samples (p99 has %d beyond it)\n",
		len(p99s), samples, samples/100)
	if ref.snaps.count > 0 {
		fmt.Fprintf(b.out, "# snapshots: every %d arrivals, %d per pass, %d bytes per pass\n",
			b.sc.snapEvery, ref.snaps.count, ref.snaps.bytes)
	}
	return res, nil
}

func passWalls(ps []timedPass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

// tracedPass is one traced pass with its tracer and wall time.
type tracedPass struct {
	out  *passOut
	tr   *tracer
	wall float64
}

// traced is the per-layer run: untraced and traced passes alternate for
// the budget, the traced ones must reproduce the untraced output exactly,
// the layer metrics are means over the traced passes, and the tracing
// overhead compares the median traced and untraced pass walls.
func (b *bench) traced() (result, error) {
	res := result{Metrics: map[string]metric{}}
	var plain []timedPass
	var tps []tracedPass
	var gcCycles uint32
	var gcPause uint64
	var heapSys uint64
	start := now()
	for len(tps) == 0 || since(start) < b.budget {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		out, err := b.inst.pass(nil, true)
		if err != nil {
			return res, err
		}
		plain = append(plain, timedPass{out, since(t0)})
		runtime.ReadMemStats(&m1)
		gcCycles += m1.NumGC - m0.NumGC
		gcPause += m1.PauseTotalNs - m0.PauseTotalNs
		heapSys = max(heapSys, m1.HeapSys)

		runtime.GC()
		tr := newTracer()
		t0 = now()
		tout, err := b.inst.pass(tr, true)
		if err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		tps = append(tps, tracedPass{tout, tr, since(t0)})
	}
	outs := []*passOut{plain[0].out}
	for _, p := range plain[1:] {
		outs = append(outs, p.out)
	}
	for _, p := range tps {
		outs = append(outs, p.out)
	}
	v := b.verifyAll(&res, outs)

	walls := make([]float64, len(tps))
	for i, p := range tps {
		walls[i] = p.wall
	}
	traceWall := median(walls)
	n := float64(len(plain))
	rs := runStats{
		overhead: traceWall/median(passWalls(plain)) - 1,
		gcCycles: float64(gcCycles) / n,
		gcPause:  float64(gcPause) / 1e9 / n,
		heapPeak: float64(heapSys) / 1e6,
	}
	put := func(name, unit string, val float64) { res.Metrics[name] = metric{val, unit} }
	layerMetrics(put, b.inst.setupTimes(), tps, v, rs)

	self := layerSelf(b.inst.setupTimes(), tps)
	fmt.Fprintf(b.out, "# traced: %d traced and %d untraced passes, traced wall %.3f s, overhead %.1f%%\n",
		len(tps), len(plain), traceWall, 100*rs.overhead)
	for _, l := range strings.Split(strings.TrimSpace(layerTable(self, traceWall)), "\n") {
		fmt.Fprintf(b.out, "# %s\n", l)
	}
	path, err := tps[len(tps)-1].tr.write(".bench_build/trace", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "# spans of the last traced pass: %s\n", path)
	return res, nil
}

func now() time.Time            { return time.Now() }
func since(t time.Time) float64 { return time.Since(t).Seconds() }

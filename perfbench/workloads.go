package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"

	"elastisched/internal/audit"
	"elastisched/internal/core"
	"elastisched/internal/cwf"
	"elastisched/internal/dispatch"
	"elastisched/internal/ecc"
	"elastisched/internal/engine"
	"elastisched/internal/experiment"
	"elastisched/internal/fault"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/trace"
	"elastisched/internal/workload"
)

// scale sets a workload's input size. Each workload has its full scale,
// which the benchmark measures; the equivalence test shrinks it.
type scale struct {
	jobs      int // jobs per generated input (per cluster for sharded-skew)
	loads     []float64
	seeds     int // generated inputs per grid point or cell
	snapEvery int // online-session snapshot cadence, in arrivals
}

// passOut is what one pass over a workload's traffic produced.
type passOut struct {
	jobs int               // simulated jobs completed
	sums []metrics.Summary // one per run, in run order
	// clusterSums holds sharded-skew's per-cluster summaries, every run's
	// clusters in order.
	clusterSums []metrics.Summary

	events, cycles uint64
	ecc            ecc.Stats
	droppedECC     int
	migrations     int
	fragRejects    int
	peakWaste      int
	runs           int
	wlGenerated    int
	wlReused       int
	steals, epochs int

	placements int // counting observer, traced passes that attach one
	shrinks    int
	observed   bool

	latency []float64 // online decision latencies, µs
	snaps   snapStats

	// units times the pass's independent pieces of work (a sweep panel, an
	// engine or dispatcher run, an online session), so the timed run can
	// take each piece's median time over its passes.
	units []unitTime
}

type unitTime struct {
	jobs int
	wall float64
}

// timeUnit runs f as one unit of p and records its wall time and the jobs
// it completed.
func (p *passOut) timeUnit(f func() error) error {
	jobs, t0 := p.jobs, now()
	err := f()
	p.units = append(p.units, unitTime{p.jobs - jobs, since(t0)})
	return err
}

func (p *passOut) addResult(r *engine.Result) {
	p.sums = append(p.sums, r.Summary)
	p.jobs += r.Summary.JobsFinished
	p.events += r.Events
	p.cycles += r.Cycles
	p.ecc = addECC(p.ecc, r.ECC)
	p.droppedECC += r.DroppedECC
	p.migrations += r.Migrations
	p.fragRejects += r.FragmentedRejections
	p.peakWaste = max(p.peakWaste, r.PeakFragmentedWaste)
	p.runs++
}

func addECC(a, b ecc.Stats) ecc.Stats {
	a.Total += b.Total
	a.Applied += b.Applied
	a.Clamped += b.Clamped
	a.IgnoredFinished += b.IgnoredFinished
	a.IgnoredUnknown += b.IgnoredUnknown
	a.IgnoredLimit += b.IgnoredLimit
	a.IgnoredCapacity += b.IgnoredCapacity
	return a
}

// verdict is the outcome of a verification pass.
type verdict struct {
	attempted int
	failed    int
	problems  []string
	digest    string
	// placements and droppedECC are counted on the verification re-runs
	// for workloads whose timed pass exposes no observer hook.
	placements int
	droppedECC int
	// setAside counts audit findings the oracle cannot decide for the run
	// (group exclusivity after migrations); see onlineSession.verify.
	setAside int
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < 5 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one workload with its inputs built from a seed.
type instance interface {
	// pass runs the workload's traffic once; tr is nil when untraced.
	// serial runs the dispatcher's clusters on one worker (traced runs, and
	// the untraced passes they are compared with), so per-cluster policy
	// time adds up to the run's.
	pass(tr *tracer, serial bool) (*passOut, error)
	// probe measures decision latency (µs per arrival) on the workload's
	// traffic fed online; online-session measures it in its pass instead.
	probe() ([]float64, error)
	// verify re-checks ref, the output of a timed pass.
	verify(ref *passOut) verdict
	// setupTimes reports the set-up's own layer timings.
	setupTimes() setupTimes
}

// setupTimes are the layer timings of one set-up.
type setupTimes struct {
	generate float64 // workload.Generate (and skew transform), seconds
	parse    float64 // cwf.Parse, seconds
	// inPass marks a workload whose pass repeats the generation internally
	// (experiment.Sweep generates its inputs inside Run), so the traced
	// run moves generate out of the pass's engine time.
	inPass bool
}

// workloadDef names a workload, its full scale, and its set-up. Why each
// workload exists is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	full  scale
	setup func(seed int64, sc scale) (instance, error)
}

var workloads = []workloadDef{
	{"paper-sweep", scale{jobs: 5000, loads: experiment.DefaultLoads(), seeds: 3}, newPaperSweep},
	{"faults-ckpt", scale{jobs: 5000, seeds: 3}, newFaultsCkpt},
	{"sharded-skew", scale{jobs: 2000, seeds: 32}, newShardedSkew},
	{"online-session", scale{jobs: 5000, seeds: 16, snapEvery: 1000}, newOnlineSession},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// subSeeds derives the generator seeds of one benchmark seed.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i) + 1
	}
	return out
}

// auditRun runs one single-cluster simulation with a trace recorder
// attached, certifies the schedule with the audit oracle, and compares
// the summary with the one the timed pass reported.
func auditRun(v *verdict, label string, w *cwf.Workload, cfg engine.Config, opt audit.Options, want metrics.Summary, h *digester) {
	v.attempted++
	rec := trace.NewRecorder(cfg.M, cfg.Unit)
	cfg.Observer = rec
	s, err := engine.New(cfg)
	if err == nil {
		err = s.Load(w)
	}
	if err == nil {
		err = s.Run()
	}
	var r *engine.Result
	if err == nil {
		r, err = s.Result()
	}
	if err != nil {
		v.fail("%s: %v", label, err)
		return
	}
	v.droppedECC += r.DroppedECC
	spans := rec.Spans()
	v.placements += len(spans)
	if cfg.Faults != nil {
		opt.Faults = s.FaultTrace()
	}
	if err := audit.Check(w, spans, opt).Error(); err != nil {
		v.fail("%s: %v", label, err)
	}
	if r.Summary != want {
		v.fail("%s: summary differs from the timed pass", label)
	}
	if got := r.Summary.JobsFinished + r.Summary.DroppedJobs; got != len(w.Jobs) {
		v.fail("%s: %d finished + dropped of %d submitted", label, got, len(w.Jobs))
	}
	h.summary(r.Summary)
	h.spans(spans)
}

// ---- paper-sweep ----------------------------------------------------------

type paperSweep struct {
	seeds  []int64
	sweeps []*experiment.Sweep
	// inputs[s][pi*len(seeds)+si] is the workload sweep s generates for
	// (point pi, seed si), rebuilt here for verification and the probe.
	inputs [][]*cwf.Workload
	times  setupTimes
}

func paperPoints(sc scale, hetero bool) []experiment.Point {
	pts := make([]experiment.Point, 0, len(sc.loads))
	for _, load := range sc.loads {
		p := workload.DefaultParams()
		p.N = sc.jobs
		p.PS = 0.5
		p.PE, p.PR = 0.2, 0.1
		p.TargetLoad = load
		if hetero {
			p.PD = 0.3
		}
		pts = append(pts, experiment.Point{X: load, Params: p, Cs: 7})
	}
	return pts
}

func algos(names ...string) []experiment.Algorithm {
	out := make([]experiment.Algorithm, len(names))
	for i, n := range names {
		out[i] = experiment.MustByName(n)
	}
	return out
}

func newPaperSweep(seed int64, sc scale) (instance, error) {
	ps := &paperSweep{seeds: subSeeds(seed, sc.seeds)}
	ps.sweeps = []*experiment.Sweep{
		{ID: "batch", Algorithms: algos("EASY", "CONS", "LOS", "Delayed-LOS", "EASY-E", "LOS-E", "Delayed-LOS-E"),
			Points: paperPoints(sc, false), Seeds: ps.seeds},
		{ID: "hetero", Algorithms: algos("EASY-D", "CONS-D", "LOS-D", "Hybrid-LOS", "Hybrid-LOS-E"),
			Points: paperPoints(sc, true), Seeds: ps.seeds},
	}
	t0 := now()
	for _, sw := range ps.sweeps {
		var ws []*cwf.Workload
		for _, pt := range sw.Points {
			for _, sd := range ps.seeds {
				p := pt.Params
				p.Seed = sd
				w, err := workload.Generate(p)
				if err != nil {
					return nil, err
				}
				ws = append(ws, w)
			}
		}
		ps.inputs = append(ps.inputs, ws)
	}
	ps.times = setupTimes{generate: since(t0), inPass: true}
	return ps, nil
}

func (ps *paperSweep) setupTimes() setupTimes { return ps.times }

func (ps *paperSweep) pass(tr *tracer, _ bool) (*passOut, error) {
	out := &passOut{}
	for _, sw := range ps.sweeps {
		run := sw
		if tr != nil {
			cp := *sw
			cp.Algorithms = make([]experiment.Algorithm, len(sw.Algorithms))
			for i, a := range sw.Algorithms {
				inner := a.New
				a.New = func(pt experiment.Point) sched.Scheduler {
					s, _ := instrument(inner(pt), tr.policies)
					return s
				}
				cp.Algorithms[i] = a
			}
			run = &cp
		}
		var res *experiment.Result
		err := out.timeUnit(func() error {
			err := tr.call("experiment.Sweep.Run", "engine", func() (err error) { res, err = run.Run(1); return })
			if err != nil {
				return err
			}
			for _, cells := range res.Cells {
				for _, c := range cells {
					for _, s := range c.PerSeed {
						out.jobs += s.JobsFinished
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for ai := range res.Cells {
			for pi := range res.Cells[ai] {
				c := res.Cells[ai][pi]
				out.sums = append(out.sums, c.PerSeed...)
				out.events += c.Events
				out.cycles += c.Cycles
				out.ecc = addECC(out.ecc, c.ECC)
				out.runs += c.Runs
			}
		}
		out.wlGenerated += res.WorkloadsGenerated
		out.wlReused += res.WorkloadsReused
	}
	return out, nil
}

// probe feeds the load-1.0 inputs of both panels online, the batch ones
// to Delayed-LOS-E and the heterogeneous ones to Hybrid-LOS-E: the grid's
// deepest queues, where decisions cost the most.
func (ps *paperSweep) probe() ([]float64, error) {
	var lat []float64
	for s, name := range []string{"Delayed-LOS-E", "Hybrid-LOS-E"} {
		a := experiment.MustByName(name)
		pi := len(ps.sweeps[s].Points) - 1
		pt := ps.sweeps[s].Points[pi]
		cfg := func() engine.Config {
			return engine.Config{M: pt.Params.M, Unit: pt.Params.Unit, Scheduler: a.New(pt),
				ProcessECC: true, MaxECCPerJob: pt.Params.MaxECCPerJob}
		}
		for si := range ps.seeds {
			if err := probeLatency(&lat, ps.inputs[s][pi*len(ps.seeds)+si], cfg); err != nil {
				return nil, err
			}
		}
	}
	return lat, nil
}

func (ps *paperSweep) verify(ref *passOut) verdict {
	var v verdict
	h := newDigester()
	k := 0
	for s, sw := range ps.sweeps {
		for _, a := range sw.Algorithms {
			for pi, pt := range sw.Points {
				for si := range ps.seeds {
					w := ps.inputs[s][pi*len(ps.seeds)+si]
					want := ref.sums[k]
					k++
					cfg := engine.Config{M: pt.Params.M, Unit: pt.Params.Unit, Scheduler: a.New(pt),
						ProcessECC: a.ECC, MaxECCPerJob: pt.Params.MaxECCPerJob}
					opt := audit.Options{M: cfg.M, Unit: cfg.Unit,
						Elastic:     a.ECC && len(w.Commands) > 0,
						SizeElastic: a.ECC && w.SizeCommandCount() > 0}
					label := fmt.Sprintf("%s %s load=%g seed=%d", sw.ID, a.Name, pt.X, ps.seeds[si])
					auditRun(&v, label, w, cfg, opt, want, h)
				}
			}
		}
	}
	v.digest = h.sum()
	return v
}

// ---- faults-ckpt ----------------------------------------------------------

type faultCell struct {
	algo      string
	policy    fault.CheckpointPolicy
	interval  int64
	malleable bool
}

var faultCells = []faultCell{
	{"EASY", fault.CheckpointPeriodic, 1800, false},
	{"EASY", fault.CheckpointDaly, 0, false},
	{"Delayed-LOS", fault.CheckpointPeriodic, 1800, false},
	{"Delayed-LOS", fault.CheckpointDaly, 0, false},
	{"EASY-M", fault.CheckpointOnResize, 0, true},
}

type faultsCkpt struct {
	seeds  []int64
	inputs []*cwf.Workload
	times  setupTimes
}

func newFaultsCkpt(seed int64, sc scale) (instance, error) {
	f := &faultsCkpt{seeds: subSeeds(seed, sc.seeds)}
	t0 := now()
	for _, sd := range f.seeds {
		p := workload.DefaultParams()
		p.N = sc.jobs
		p.PS = 0.5
		p.TargetLoad = 0.9
		p.PM = 1.0 // bounds only annotate; rigid cells ignore them
		p.Seed = sd
		w, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		f.inputs = append(f.inputs, w)
	}
	f.times.generate = since(t0)
	return f, nil
}

func (f *faultsCkpt) setupTimes() setupTimes { return f.times }

// config builds the engine configuration of one (cell, input seed) run.
func (f *faultsCkpt) config(c faultCell, seed int64) engine.Config {
	cfg := engine.Config{
		M: 320, Unit: 32,
		Scheduler: experiment.MustByName(c.algo).New(experiment.Point{Cs: 7}),
		Faults: &engine.FaultConfig{
			MTBF: 40000, MTTR: 2000, Seed: seed,
			Retry:              fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 30},
			Checkpoint:         c.policy,
			CheckpointInterval: c.interval,
			CheckpointCost:     60,
		},
	}
	if c.malleable {
		cfg.Malleable = true
		cfg.ResizeOverhead = 60
	}
	return cfg
}

func (f *faultsCkpt) pass(tr *tracer, _ bool) (*passOut, error) {
	out := &passOut{observed: tr != nil}
	for _, c := range faultCells {
		for si, w := range f.inputs {
			cfg := f.config(c, f.seeds[si])
			var obs *countObserver
			if tr != nil {
				var ps *policyStats
				cfg.Scheduler, ps = instrument(cfg.Scheduler, tr.policies)
				obs = &countObserver{ps: ps}
				cfg.Observer = obs
			}
			err := out.timeUnit(func() error {
				var s *engine.Session
				var r *engine.Result
				err := tr.call("engine.New", "engine", func() (err error) { s, err = engine.New(cfg); return })
				if err == nil {
					err = tr.call("engine.Load", "engine", func() error { return s.Load(w) })
				}
				if err == nil {
					err = tr.call("engine.Run", "engine", s.Run)
				}
				if err == nil {
					err = tr.call("engine.Result", "metrics", func() (err error) { r, err = s.Result(); return })
				}
				if err == nil {
					out.addResult(r)
				}
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s seed %d: %w", c.algo, c.policy, f.seeds[si], err)
			}
			if obs != nil {
				out.placements += obs.placements
				out.shrinks += obs.shrinks
			}
		}
	}
	return out, nil
}

// probe feeds every input online to EASY with periodic checkpoints.
func (f *faultsCkpt) probe() ([]float64, error) {
	var lat []float64
	for si, w := range f.inputs {
		cfg := func() engine.Config { return f.config(faultCells[0], f.seeds[si]) }
		if err := probeLatency(&lat, w, cfg); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

func (f *faultsCkpt) verify(ref *passOut) verdict {
	var v verdict
	h := newDigester()
	k := 0
	for _, c := range faultCells {
		for si, w := range f.inputs {
			cfg := f.config(c, f.seeds[si])
			fc := cfg.Faults
			opt := audit.Options{M: cfg.M, Unit: cfg.Unit,
				Malleable: cfg.Malleable, ResizeOverhead: cfg.ResizeOverhead,
				Retry: fc.Retry, Checkpoint: fc.Checkpoint,
				CheckpointInterval: fc.ResolvedCheckpointInterval(),
				CheckpointCost:     fc.CheckpointCost, MTBF: fc.MTBF}
			label := fmt.Sprintf("%s/%s seed=%d", c.algo, c.policy, f.seeds[si])
			auditRun(&v, label, w, cfg, opt, ref.sums[k], h)
			k++
		}
	}
	v.digest = h.sum()
	return v
}

// ---- sharded-skew ---------------------------------------------------------

const shardClusters = 8

// shardLoad is the global offered load of the skewed traffic.
const shardLoad = 0.3

type shardedSkew struct {
	inputs []*cwf.Workload
	epochs []int64 // per input: arrival span / 5000
	times  setupTimes
}

// zipfMax caps the skew multipliers.
const zipfMax = 200

// zipfStrata returns n multipliers at the zipf distribution's quantiles
// (i+0.5)/n, for P(k) ∝ (v+k)^-s over k = 0..imax: every seed gets the same
// multiset of multipliers, so the share of work in the tail is fixed and
// only which jobs carry it varies.
func zipfStrata(n int, s, v float64, imax int) []int {
	cdf := make([]float64, imax+1)
	total := 0.0
	for k := range cdf {
		total += math.Pow(v+float64(k), -s)
		cdf[k] = total
	}
	out := make([]int, n)
	k := 0
	for i := range out {
		u := (float64(i) + 0.5) / float64(n) * total
		for cdf[k] < u {
			k++
		}
		out[i] = k
	}
	return out
}

// skewed builds the zipf-skewed sharded traffic: paper jobs whose
// durations are stretched by zipf multipliers (capped at the generator's
// maximum runtime), the tail (k >= 50) turned into half-cluster capability
// runs of median duration × 8(1+k), with arrivals rescaled to the global
// offered load shardLoad.
func skewed(seed int64, n int) (*cwf.Workload, error) {
	p := workload.DefaultParams()
	p.N = n
	p.Seed = seed
	w, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	ks := zipfStrata(len(w.Jobs), 2.5, 1, zipfMax)
	rand.New(rand.NewSource(seed)).Shuffle(len(ks), func(a, b int) { ks[a], ks[b] = ks[b], ks[a] })
	durs := make([]int64, len(w.Jobs))
	for i, j := range w.Jobs {
		durs[i] = j.Dur
	}
	slices.Sort(durs)
	ref := durs[len(durs)/2]
	for i, j := range w.Jobs {
		k := int64(ks[i])
		j.Dur = min(j.Dur*(1+k), p.MaxRuntime)
		if k >= 50 {
			j.Size = 160
			j.Dur = ref * (1 + k) * 8
		}
	}
	scale := w.Load(320*shardClusters) / shardLoad
	for _, j := range w.Jobs {
		j.Arrival = int64(float64(j.Arrival) * scale)
	}
	for i := range w.Commands {
		w.Commands[i].Issue = int64(float64(w.Commands[i].Issue) * scale)
	}
	return w, nil
}

func newShardedSkew(seed int64, sc scale) (instance, error) {
	sh := &shardedSkew{}
	t0 := now()
	for _, sd := range subSeeds(seed, sc.seeds) {
		w, err := skewed(sd, sc.jobs*shardClusters)
		if err != nil {
			return nil, err
		}
		sh.inputs = append(sh.inputs, w)
		sh.epochs = append(sh.epochs, max(w.Jobs[len(w.Jobs)-1].Arrival/5000, 1))
	}
	sh.times.generate = since(t0)
	return sh, nil
}

func (sh *shardedSkew) setupTimes() setupTimes { return sh.times }

// configs returns one input's two dispatcher runs: static least-work on
// the one-shot path, and feedback routing with barrier stealing.
func (sh *shardedSkew) configs(i, workers int, newSched func() sched.Scheduler) []dispatch.Config {
	base := dispatch.Config{
		Clusters:     shardClusters,
		Workers:      workers,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: newSched,
	}
	static, dyn := base, base
	static.Route = dispatch.RouteLeastWork
	dyn.Route = dispatch.RouteFeedback
	dyn.Epoch = sh.epochs[i]
	dyn.Steal = true
	return []dispatch.Config{static, dyn}
}

func losD() sched.Scheduler { return core.NewLOS(true) }

func (sh *shardedSkew) pass(tr *tracer, serial bool) (*passOut, error) {
	out := &passOut{}
	workers, newSched := 2, losD
	if serial {
		workers = 1
	}
	if tr != nil {
		newSched = func() sched.Scheduler {
			s, _ := instrument(losD(), tr.policies)
			return s
		}
	}
	for i, w := range sh.inputs {
		for _, cfg := range sh.configs(i, workers, newSched) {
			err := out.timeUnit(func() error {
				var r *dispatch.Result
				err := tr.call("dispatch.Run", "dispatch", func() (err error) { r, err = dispatch.Run(w, cfg); return })
				if err == nil {
					out.addSharded(r)
				}
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("input %d route %s: %w", i, cfg.Route, err)
			}
		}
	}
	return out, nil
}

func (p *passOut) addSharded(r *dispatch.Result) {
	p.sums = append(p.sums, r.Merged)
	p.jobs += r.Merged.JobsFinished
	p.events += r.Events
	p.cycles += r.Cycles
	p.ecc = addECC(p.ecc, r.ECC)
	p.droppedECC += r.DroppedECC
	p.steals += r.Steals
	p.epochs += r.Epochs
	p.runs++
	for _, c := range r.Clusters {
		p.clusterSums = append(p.clusterSums, c.Result.Summary)
	}
}

// probe feeds one cluster's share of every input — every
// shardClusters-th submission, a round-robin split — online to one LOS-D
// session of a cluster's size.
func (sh *shardedSkew) probe() ([]float64, error) {
	var lat []float64
	for _, w := range sh.inputs {
		part := &cwf.Workload{Header: w.Header}
		for i := 0; i < len(w.Jobs); i += shardClusters {
			part.Jobs = append(part.Jobs, w.Jobs[i])
		}
		cfg := func() engine.Config { return engine.Config{M: 320, Unit: 32, Scheduler: losD()} }
		if err := probeLatency(&lat, part, cfg); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// verify reruns every dispatcher run with one worker — the merged and
// per-cluster results must equal the timed pass's — and checks the
// conservation laws: every submission finishes or drops exactly once,
// across clusters, and every job has exactly one owner after stealing.
func (sh *shardedSkew) verify(ref *passOut) verdict {
	var v verdict
	rerun := &passOut{}
	h := newDigester()
	for i, w := range sh.inputs {
		n := len(w.Jobs)
		for _, cfg := range sh.configs(i, 1, losD) {
			v.attempted++
			label := fmt.Sprintf("input %d route %s", i, cfg.Route)
			r, err := dispatch.Run(w, cfg)
			if err != nil {
				v.fail("%s: %v", label, err)
				continue
			}
			rerun.addSharded(r)
			h.summary(r.Merged)
			for _, c := range r.Clusters {
				h.summary(c.Result.Summary)
				h.points(c.Result.Samples.PerJob)
			}
			h.owners(r.Owners)
			if got := r.Merged.JobsFinished + r.Merged.DroppedJobs; got != n {
				v.fail("%s: %d finished + dropped of %d submitted", label, got, n)
			}
			routed, finished := 0, 0
			for _, c := range r.Clusters {
				routed += c.Jobs
				finished += c.Result.Summary.JobsFinished + c.Result.Summary.DroppedJobs
			}
			if cfg.Epoch == 0 && routed != n {
				v.fail("%s: %d jobs routed of %d", label, routed, n)
			}
			if finished != n {
				v.fail("%s: clusters finished or dropped %d of %d", label, finished, n)
			}
			if cfg.Epoch > 0 {
				owned := 0
				for _, j := range w.Jobs {
					if _, ok := r.Owners[j.ID]; ok {
						owned++
					}
				}
				if owned != n || len(r.Owners) != n {
					v.fail("%s: %d of %d jobs owned, %d owners", label, owned, n, len(r.Owners))
				}
			}
		}
	}
	if err := checkSame(ref, rerun); err != nil {
		v.fail("one-worker rerun: %v", err)
	}
	v.digest = h.sum()
	return v
}

// ---- online-session -------------------------------------------------------

type onlineSession struct {
	sc     scale
	inputs []*cwf.Workload // as read back by cwf.Parse
	times  setupTimes
}

func newOnlineSession(seed int64, sc scale) (instance, error) {
	o := &onlineSession{sc: sc}
	for _, sd := range subSeeds(seed, sc.seeds) {
		p := workload.DefaultParams()
		p.N = sc.jobs
		p.M, p.Unit = 4096, 32
		p.PS = 0.5
		p.PD = 0.3
		p.PE, p.PR = 0.2, 0.1
		p.TargetLoad = 0.9
		p.Seed = sd
		t0 := now()
		w, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		o.times.generate += since(t0)
		var buf bytes.Buffer
		if err := cwf.Write(&buf, w); err != nil {
			return nil, err
		}
		t0 = now()
		in, err := cwf.Parse(&buf)
		o.times.parse += since(t0)
		if err != nil {
			return nil, err
		}
		in.Sort()
		if err := in.Validate(p.M); err != nil {
			return nil, err
		}
		o.inputs = append(o.inputs, in)
	}
	return o, nil
}

func (o *onlineSession) setupTimes() setupTimes { return o.times }

func (o *onlineSession) config(obs engine.Observer) engine.Config {
	return engine.Config{
		M: 4096, Unit: 32, Contiguous: true, Migrate: true,
		Scheduler: core.NewHybridLOS(7), ProcessECC: true, MaxECCPerJob: 1,
		Observer: obs,
	}
}

func (o *onlineSession) pass(tr *tracer, _ bool) (*passOut, error) {
	out := &passOut{observed: tr != nil}
	for i, w := range o.inputs {
		var obs *countObserver
		mk := func() engine.Config { return o.config(nil) }
		if tr != nil {
			obs = &countObserver{}
			mk = func() engine.Config {
				cfg := o.config(obs)
				cfg.Scheduler, obs.ps = instrument(cfg.Scheduler, tr.policies)
				return cfg
			}
		}
		err := out.timeUnit(func() error {
			r, ss, err := feed(w, feedOpts{config: mk, snapEvery: o.sc.snapEvery, latency: &out.latency, tr: tr})
			if err == nil {
				out.addResult(r)
				out.snaps.add(ss)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		if obs != nil {
			out.placements += obs.placements
			out.shrinks += obs.shrinks
		}
	}
	return out, nil
}

func (o *onlineSession) probe() ([]float64, error) { return nil, nil }

// verify replays each online feed without snapshots, with a trace
// recorder attached and the engine's paranoid mode on: the summary must
// equal the snapshotted pass's, the machine's invariants must hold at
// every instant, and the audit oracle must certify the schedule. The
// oracle knows each job's node groups only at dispatch; migration moves
// running jobs without an observer event, so when a run migrated, the
// oracle's group-exclusivity findings are set aside (counted, not failed)
// and group ownership rests on the paranoid machine check. Capacity and
// every other rule stay enforced.
func (o *onlineSession) verify(ref *passOut) verdict {
	var v verdict
	h := newDigester()
	for i, w := range o.inputs {
		v.attempted++
		rec := trace.NewRecorder(4096, 32)
		r, _, err := feed(w, feedOpts{config: func() engine.Config {
			cfg := o.config(rec)
			cfg.Paranoid = true
			return cfg
		}})
		if err != nil {
			v.fail("input %d without snapshots: %v", i, err)
			continue
		}
		if r.Summary != ref.sums[i] {
			v.fail("input %d: snapshotted run's summary differs from the run without snapshots", i)
		}
		spans := rec.Spans()
		v.placements += len(spans)
		v.droppedECC += r.DroppedECC
		rep := audit.Check(w, spans, audit.Options{M: 4096, Unit: 32, Elastic: len(w.Commands) > 0})
		for _, msg := range rep.Violations {
			if r.Migrations > 0 && strings.HasPrefix(msg, "group ") && strings.Contains(msg, "double-booked") {
				v.setAside++
				continue
			}
			v.fail("input %d: audit: %s", i, msg)
		}
		h.summary(r.Summary)
		h.spans(spans)
	}
	v.digest = h.sum()
	return v
}

// probeLatency feeds w online once, from a freshly collected heap, and
// appends every arrival's decision latency, in µs, to lat.
func probeLatency(lat *[]float64, w *cwf.Workload, config func() engine.Config) error {
	runtime.GC()
	_, _, err := feed(w, feedOpts{config: config, latency: lat})
	return err
}

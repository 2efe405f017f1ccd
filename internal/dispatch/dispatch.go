// Package dispatch is the two-level scheduling layer: a global dispatcher
// that routes an arriving workload across N per-cluster engine sessions and
// runs them on parallel goroutines, merging their outcomes
// deterministically. It models the scale-out configuration of the ROADMAP —
// many racks, one entry point — the way the two-level-scheduling and SST
// scalable-simulation papers structure it: global routing above, unmodified
// per-cluster scheduling below.
//
// One runner serves every configuration. It builds one session per cluster
// from a single per-cluster config builder, drains the sessions on one
// persistent worker pool, and assembles one merged Result. Only the feeding
// differs. With one cluster or Epoch == 0 (the no-barrier case) each session
// is Loaded with its routed part and the pool drains them all in one
// parallel Run. With Epoch > 0 on several clusters the epoch protocol
// (epoch.go) releases work by Inject in barrier rounds and exchanges it at
// each barrier; with a static route and stealing off it reproduces the
// no-barrier result exactly.
//
// Determinism contract: routing is a pure function of the workload order,
// the cluster count, and the routing policy (see Router — round-robin,
// least-work, best-fit, and feedback over the barrier digests; commands
// always follow their job), every cluster simulation is single-goroutine
// deterministic, and the merge walks clusters in index order. The result is
// therefore byte-identically reproducible for any worker count under every
// policy; the cross-worker determinism tests pin 1/2/4/8 workers for each
// policy. This is the same parallel-execution/deterministic-reduction split
// the experiment sweeps use.
package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"elastisched/internal/cwf"
	"elastisched/internal/ecc"
	"elastisched/internal/engine"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
)

// Typed configuration errors, testable with errors.Is.
var (
	// ErrClusterCount rejects a non-positive cluster count.
	ErrClusterCount = errors.New("dispatch: cluster count must be at least 1")
	// ErrNoScheduler rejects a config without a scheduler factory.
	ErrNoScheduler = errors.New("dispatch: no scheduler factory configured")
	// ErrTemplateScheduler rejects a template carrying a scheduler instance:
	// policies hold scratch state, so each cluster needs its own, built by
	// NewScheduler.
	ErrTemplateScheduler = errors.New("dispatch: engine template must not carry a scheduler instance; set NewScheduler")
	// ErrTemplateObserver rejects a template carrying an observer: placement
	// events from parallel clusters would interleave nondeterministically.
	ErrTemplateObserver = errors.New("dispatch: engine template must not carry an observer")
	// ErrEpochRequired rejects dynamic features — stealing, affinity pinning,
	// feedback routing — on a multi-cluster run without a positive Epoch:
	// they all live in the epoch protocol's barrier exchange.
	ErrEpochRequired = errors.New("dispatch: steal/affinity/feedback require a positive Epoch")
	// ErrNegativeAffinity rejects a negative affinity class size: zero turns
	// pinning off, and a negative value would silently do the same.
	ErrNegativeAffinity = errors.New("dispatch: affinity must not be negative")
)

// Config describes one sharded run.
type Config struct {
	// Clusters is the number of per-cluster sessions (the global machine is
	// Clusters × Engine.M processors).
	Clusters int
	// Workers bounds the goroutines stepping cluster sessions; 0 means
	// GOMAXPROCS. The outcome is identical for any value (see the package
	// determinism contract).
	Workers int
	// Engine is the per-cluster configuration template: machine geometry,
	// ECC processing, allocation policy, fault model. Scheduler and Observer
	// must be nil; Prevalidated is managed by the dispatcher.
	Engine engine.Config
	// NewScheduler builds one policy instance per cluster.
	NewScheduler func() sched.Scheduler
	// Route names the routing policy splitting submissions over clusters:
	// RouteRoundRobin (the default for ""), RouteLeastWork, or
	// RouteBestFit — plus RouteFeedback when Epoch > 0. Routing is a pure
	// function of (workload order, cluster count, policy, and — for
	// feedback — the deterministic barrier digests), so every policy keeps
	// the cross-worker determinism contract.
	Route string
	// Epoch, when positive on a multi-cluster run, switches to the
	// epoch-synchronization protocol: sessions step to shared virtual-time
	// barriers every Epoch seconds, publish queue digests, and exchange
	// work deterministically (see epoch.go). Zero is the no-barrier case:
	// every session is Loaded with its routed part and run to completion. A
	// single cluster is always the no-barrier case: there is no peer to
	// exchange with.
	Epoch int64
	// Steal enables the barrier exchange step: idle clusters pull queued
	// jobs from backlogged ones, commands following the job. Needs Epoch.
	Steal bool
	// Affinity, when positive, pins every Affinity-th submission (job IDs
	// divisible by Affinity) to a home cluster derived from its ID — a
	// data-locality class that routing honors and stealing never violates.
	// Needs Epoch; must not be negative.
	Affinity int
}

// Validate checks the configuration and resolves its routing policy name,
// reporting the first violation as one of the typed errors above or
// ErrUnknownRoute. Run validates first; callers assembling configurations
// ahead of a run (sweeps) call it to fail before any work is done.
func (cfg Config) Validate() error {
	_, err := cfg.router()
	return err
}

// router validates the configuration and returns a fresh instance of its
// routing policy.
func (cfg Config) router() (Router, error) {
	switch {
	case cfg.Clusters < 1:
		return nil, fmt.Errorf("%w (got %d)", ErrClusterCount, cfg.Clusters)
	case cfg.NewScheduler == nil:
		return nil, ErrNoScheduler
	case cfg.Engine.Scheduler != nil:
		return nil, ErrTemplateScheduler
	case cfg.Engine.Observer != nil:
		return nil, ErrTemplateObserver
	case cfg.Affinity < 0:
		return nil, fmt.Errorf("%w (got %d)", ErrNegativeAffinity, cfg.Affinity)
	case cfg.Epoch < 0:
		return nil, fmt.Errorf("%w (got epoch %d)", ErrEpochRequired, cfg.Epoch)
	case cfg.Clusters > 1 && cfg.Epoch == 0 &&
		(cfg.Steal || cfg.Affinity > 0 || cfg.Route == RouteFeedback):
		return nil, ErrEpochRequired
	}
	return NewRouter(cfg.Route)
}

// clusterConfig is cluster c's engine configuration: the template with its
// own scheduler instance and validation skipped (Run validated the whole
// workload). Each cluster draws an independent fault stream from a seed
// offset by its index, so the same global seed fails the same groups of the
// same clusters on every run.
func (cfg Config) clusterConfig(c int) engine.Config {
	ecfg := cfg.Engine
	ecfg.Scheduler = cfg.NewScheduler()
	ecfg.Prevalidated = true
	if cfg.Engine.Faults != nil {
		fc := *cfg.Engine.Faults
		fc.Seed += int64(c)
		ecfg.Faults = &fc
	}
	return ecfg
}

// ClusterResult is one cluster's outcome.
type ClusterResult struct {
	// Cluster is the cluster index; Jobs the number of submissions routed
	// to it.
	Cluster int
	Jobs    int
	Result  *engine.Result
}

// Result is the merged outcome of a sharded run.
type Result struct {
	// Merged is metrics.Merge over the per-cluster summaries and sample
	// vectors, in cluster order: the global view, with the order
	// statistics and the steady-state window a single collector would
	// report for the same per-cluster schedules. With one cluster it is
	// that cluster's summary. Otherwise MaxQueueDepth stays zero, as a
	// per-cluster property; read it from Clusters[i].
	Merged metrics.Summary
	// ECC sums the command-processor accounting; DroppedECC the commands
	// dropped by non-ECC configurations.
	ECC        ecc.Stats
	DroppedECC int
	// Events and Cycles total the kernel events and scheduler invocations
	// across clusters.
	Events uint64
	Cycles uint64
	// Clusters holds the per-cluster results, in cluster order.
	Clusters []ClusterResult
	// Steals and Epochs report the epoch protocol's activity: jobs moved
	// between clusters by the barrier exchange, and barrier rounds run.
	// Both stay zero in the no-barrier case, so its serialized results are
	// unchanged.
	Steals int `json:",omitempty"`
	Epochs int `json:",omitempty"`
	// Owners maps job ID to the cluster that completed it — the routed home
	// updated by steals. Nil in the no-barrier case (the split is a pure
	// function of the workload there; see route).
	Owners map[int]int `json:",omitempty"`
}

// route is the static split: the router assigns each submission in
// workload order, and an affinity pin overrides its choice. The split
// depends only on the workload, the cluster count, the policy and the pins
// — never on timing or worker count. With homes nil it returns the
// per-cluster workloads the no-barrier case Loads, each command following
// its job. The epoch protocol, which releases work by Inject, passes homes
// to receive every job's home cluster by ID instead, and gets no parts.
func route(w *cwf.Workload, clusters, m, affinity int, r Router, homes map[int]int) []*cwf.Workload {
	if clusters == 1 {
		// Fast path: one cluster receives the whole workload unchanged.
		// Skip the router, the per-job home map, and the per-part rebuild
		// entirely — the engine clones jobs at Load and never mutates the
		// workload, so handing the validated workload over as-is is safe.
		return []*cwf.Workload{w}
	}
	r.Reset(clusters, m)
	var parts []*cwf.Workload
	if homes == nil {
		parts = make([]*cwf.Workload, clusters)
		for c := range parts {
			parts[c] = &cwf.Workload{Header: w.Header}
		}
		homes = make(map[int]int, len(w.Jobs))
	}
	for i, j := range w.Jobs {
		c := PinnedCluster(j.ID, affinity, clusters)
		if c < 0 {
			if c = r.Route(j); c < 0 || c >= clusters {
				panic(fmt.Sprintf("dispatch: router %s sent job %d (index %d) to cluster %d of %d",
					r.Name(), j.ID, i, c, clusters))
			}
		}
		homes[j.ID] = c
		if parts != nil {
			parts[c].Jobs = append(parts[c].Jobs, j)
		}
	}
	if parts != nil {
		for _, cmd := range w.Commands {
			if c, ok := homes[cmd.JobID]; ok {
				parts[c].Commands = append(parts[c].Commands, cmd)
			}
			// A command referencing a job no cluster owns cannot exist in a
			// validated workload; Run validates before routing.
		}
	}
	return parts
}

// runner is the state of one sharded run: the cluster sessions, the worker
// pool that steps them, and — under the epoch protocol — the ownership,
// digest and exchange state of epoch.go.
type runner struct {
	cfg      Config
	workers  int
	sessions []*engine.Session
	errs     []error

	dynamic DigestRouter // non-nil when the policy reads digests (feedback)
	// parts holds the per-cluster workloads of the no-barrier case; nil
	// under the epoch protocol, which releases work by Inject.
	parts []*cwf.Workload
	// owner maps job ID -> current cluster under the epoch protocol. A
	// static split seeds it up front, feedback routing at release; it is
	// updated only in the exchange step, so ownership is constant within an
	// epoch and commands always land where their job is.
	owner map[int]int

	digests []Digest
	steals  int
	epochs  int

	// Worker pool, spun up on the first parallel call and kept for the run:
	// the epoch loop hits a barrier thousands of times per workload, so
	// per-round goroutine spawns would dominate the protocol's own cost. fn
	// is the current round's task, a method expression reading its inputs
	// from the run state, so no round allocates a closure; the channel send
	// into tasks publishes it, and wg.Wait() fences the round before fn is
	// swapped.
	tasks chan int
	fn    func(e *runner, c int) error
	wg    sync.WaitGroup

	// Exchange-step and step-dispatch scratch, reused across epochs.
	receivers, donors []int
	victims           []*job.Job
	active            []int
	barrier           int64
}

// Run executes the workload across cfg.Clusters parallel cluster sessions
// and merges the outcomes. The workload is validated once against the
// per-cluster machine and not mutated (each session clones its jobs), so
// the same workload can be replayed under other configurations.
func Run(w *cwf.Workload, cfg Config) (*Result, error) {
	router, err := cfg.router()
	if err != nil {
		return nil, err
	}
	// Every job must fit one cluster's machine; validating the whole
	// workload against the per-cluster M establishes that for any routing.
	if !cfg.Engine.Prevalidated {
		if err := w.Validate(cfg.Engine.M); err != nil {
			return nil, err
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &runner{
		cfg:      cfg,
		workers:  min(workers, cfg.Clusters),
		sessions: make([]*engine.Session, cfg.Clusters),
		errs:     make([]error, cfg.Clusters),
		active:   make([]int, 0, cfg.Clusters),
	}
	barriers := cfg.Clusters > 1 && cfg.Epoch > 0
	if barriers {
		e.owner = make(map[int]int, len(w.Jobs))
		e.digests = make([]Digest, cfg.Clusters)
		if dyn, ok := router.(DigestRouter); ok {
			// Feedback routing decides each release from the last
			// barrier's digests: there is no split up front.
			dyn.Reset(cfg.Clusters, cfg.Engine.M)
			e.dynamic = dyn
		} else {
			route(w, cfg.Clusters, cfg.Engine.M, cfg.Affinity, router, e.owner)
		}
	} else {
		e.parts = route(w, cfg.Clusters, cfg.Engine.M, cfg.Affinity, router, nil)
	}
	if err := e.buildSessions(w); err != nil {
		return nil, err
	}
	defer e.stopPool()
	if barriers {
		err = e.loop(w)
	} else {
		err = e.parallel((*runner).drainSession)
	}
	if err != nil {
		return nil, err
	}
	return e.result()
}

// buildSessions creates one session per cluster. A no-barrier session is
// Loaded later, in drainSession, and Load arms its faults over its own
// part's span. Epoch-protocol sessions stay empty (they are fed by Inject)
// and are armed here over the same horizon (see horizons).
func (e *runner) buildSessions(w *cwf.Workload) error {
	var horizon []int64
	if e.parts == nil {
		horizon = e.horizons(w)
	}
	for c := range e.sessions {
		s, err := engine.New(e.cfg.clusterConfig(c))
		if err == nil && horizon != nil {
			err = s.ArmFaults(horizon[c])
		}
		if err != nil {
			return fmt.Errorf("dispatch: cluster %d: %w", c, err)
		}
		e.sessions[c] = s
	}
	return nil
}

// drainSession runs cluster c to completion: the no-barrier case's whole
// run, and the epoch loop's last step once nothing is left to release or
// exchange. A no-barrier session takes its routed part by Load inside its
// task, so the bulk clones run in parallel too.
func (e *runner) drainSession(c int) error {
	s := e.sessions[c]
	if e.parts != nil {
		if err := s.Load(e.parts[c]); err != nil {
			return err
		}
	}
	return s.Run()
}

// parallel runs fn for every cluster; see parallelOver.
func (e *runner) parallel(fn func(e *runner, c int) error) error {
	active := e.active[:0]
	for c := range e.sessions {
		active = append(active, c)
	}
	e.active = active
	return e.parallelOver(active, fn)
}

// parallelOver runs fn for the listed clusters on the run's persistent
// worker pool and surfaces the first error in cluster order, regardless of
// wall-clock completion order. The pool goroutines are started once and
// reused for every round: the channel send publishes e.fn to the worker
// picking the task up, and wg.Wait() fences the whole round before the
// next call swaps fn. A single-cluster round runs inline — the handoff
// costs more than it buys.
func (e *runner) parallelOver(list []int, fn func(e *runner, c int) error) error {
	if e.workers == 1 || len(list) == 1 {
		for _, c := range list {
			e.errs[c] = fn(e, c)
		}
	} else {
		if e.tasks == nil {
			// Workers range over their own copy of the channel: one that
			// has not started by the time stopPool clears e.tasks must
			// still see the close and exit.
			tasks := make(chan int)
			e.tasks = tasks
			for i := 0; i < e.workers; i++ {
				go func() {
					for c := range tasks {
						e.errs[c] = e.fn(e, c)
						e.wg.Done()
					}
					e.wg.Done()
				}()
			}
		}
		e.fn = fn
		e.wg.Add(len(list))
		for _, c := range list {
			e.tasks <- c
		}
		e.wg.Wait()
	}
	for _, c := range list {
		if err := e.errs[c]; err != nil {
			return fmt.Errorf("dispatch: cluster %d: %w", c, err)
		}
	}
	return nil
}

// stopPool releases the worker goroutines at the end of the run and waits
// for them to exit, so a finished run leaves none behind.
func (e *runner) stopPool() {
	if e.tasks != nil {
		e.wg.Add(e.workers)
		close(e.tasks)
		e.wg.Wait()
		e.tasks = nil
	}
}

// result assembles the merged Result from the drained sessions, walking
// them in cluster order. A cluster's job count is its routed part in the
// no-barrier case and its final ownership share under the epoch protocol.
func (e *runner) result() (*Result, error) {
	res := &Result{
		Clusters: make([]ClusterResult, len(e.sessions)),
		Steals:   e.steals,
		Epochs:   e.epochs,
		Owners:   e.owner,
	}
	for c, p := range e.parts {
		res.Clusters[c].Jobs = len(p.Jobs)
	}
	for _, c := range e.owner {
		res.Clusters[c].Jobs++
	}
	sums := make([]metrics.Summary, len(e.sessions))
	samples := make([]*metrics.Samples, len(e.sessions))
	for c, s := range e.sessions {
		r, err := s.Result()
		if err != nil {
			return nil, fmt.Errorf("dispatch: cluster %d: %w", c, err)
		}
		res.Clusters[c].Cluster = c
		res.Clusters[c].Result = r
		res.ECC.Add(r.ECC)
		res.DroppedECC += r.DroppedECC
		res.Events += r.Events
		res.Cycles += r.Cycles
		sums[c], samples[c] = r.Summary, r.Samples
	}
	res.Merged = metrics.Merge(sums, samples)
	return res, nil
}

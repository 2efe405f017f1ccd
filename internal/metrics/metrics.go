// Package metrics collects the performance measures the paper reports:
// mean system utilization (time-integrated busy fraction), mean job waiting
// time, and slowdown defined as (avg wait + avg runtime)/avg runtime
// (Section V). It also records richer diagnostics — per-class waits,
// percentiles, per-job bounded slowdown, dedicated on-time rate — used by
// the extended benches.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"elastisched/internal/job"
)

// Collector accumulates events during one simulation run.
type Collector struct {
	m int

	busy     int
	lastT    int64
	area     float64
	haveT0   bool
	t0, tEnd int64

	// The per-job measures other than the wait only ever feed arithmetic
	// means, so they accumulate as streaming sums; the waits live in
	// perJob, which the order statistics need in full.
	runSum      float64
	slowSum     float64
	batchSum    float64
	batchCount  int
	dedSum      float64
	dedOnTime   int
	dedTotal    int
	jobsStarted int
	jobsDone    int
	queued      int
	maxQueued   int

	// Fault accounting: jobs killed by node-group failures, how they were
	// dispatched afterwards, the processor-seconds of work the kills
	// destroyed, and the integral of out-of-service capacity.
	killed    int
	retried   int
	dropped   int
	lostWork  float64
	downProcs int
	downArea  float64

	// Checkpoint accounting: checkpoints taken by running jobs and the
	// total cost charged for them (the engine's lost-work decomposition:
	// what kills destroy shrinks to work-since-checkpoint, what
	// checkpointing costs shows up here).
	checkpoints  int
	ckptOverhead float64

	// Malleability accounting: system-initiated resizes applied, the
	// processor-seconds of planned capacity ceded by shrinks, and the total
	// reconfiguration overhead charged to resized jobs.
	schedResizes   int
	shrunkProcSecs float64
	reconfigSecs   float64

	// busySteps records the busy-count step function (one entry per change)
	// so steady-state windows can be evaluated after the fact.
	busySteps []BusyStep
	// perJob records (arrival, finish, wait) per completed job, in
	// completion order: the wait series of the order statistics and the
	// completion instants of the steady-state window.
	perJob []JobPoint
}

// NewCollector returns a collector for a machine of m processors.
func NewCollector(m int) *Collector {
	return &Collector{m: m}
}

// NewCollectorSized returns a collector presized for a run of n jobs, so the
// per-job series and the busy step function grow without reallocation.
func NewCollectorSized(m, n int) *Collector {
	return &Collector{
		m:         m,
		perJob:    make([]JobPoint, 0, n),
		busySteps: make([]BusyStep, 0, 2*n),
	}
}

// integrate advances the busy-area and down-capacity integrals to time t.
func (c *Collector) integrate(t int64) {
	if t > c.lastT {
		dt := float64(t - c.lastT)
		c.area += float64(c.busy) * dt
		if c.downProcs > 0 {
			c.downArea += float64(c.downProcs) * dt
		}
		c.lastT = t
	}
}

// noteBusy appends to the busy step function (coalescing same-instant
// changes).
func (c *Collector) noteBusy(t int64) {
	if n := len(c.busySteps); n > 0 && c.busySteps[n-1].T == t {
		c.busySteps[n-1].Busy = c.busy
		return
	}
	c.busySteps = append(c.busySteps, BusyStep{T: t, Busy: c.busy})
}

// JobArrived opens the measurement window at the first arrival and tracks
// the waiting-queue depth.
func (c *Collector) JobArrived(j *job.Job, t int64) {
	if !c.haveT0 || t < c.t0 {
		if !c.haveT0 {
			c.lastT = t
		}
		c.t0 = t
		c.haveT0 = true
	}
	c.queued++
	if c.queued > c.maxQueued {
		c.maxQueued = c.queued
	}
}

// JobWithdrawn reverses a JobArrived for a job leaving the waiting queue
// without starting — the sharded dispatcher's steal path, where the job
// re-arrives (and re-counts) on the receiving cluster's collector. Only the
// queue depth moves: the measurement window stays open, and the job's wait
// is accounted where it eventually starts.
func (c *Collector) JobWithdrawn() {
	c.queued--
}

// JobStarted accounts for a dispatch at time t.
func (c *Collector) JobStarted(j *job.Job, t int64) {
	c.integrate(t)
	c.busy += j.Size
	c.jobsStarted++
	c.queued--
	if c.busy > c.m {
		panic(fmt.Sprintf("metrics: busy %d exceeds machine %d at t=%d", c.busy, c.m, t))
	}
	c.noteBusy(t)
}

// JobFinished accounts for a completion at time t.
func (c *Collector) JobFinished(j *job.Job, t int64) {
	c.integrate(t)
	c.busy -= j.Size
	if c.busy < 0 {
		panic(fmt.Sprintf("metrics: negative busy %d at t=%d", c.busy, t))
	}
	c.noteBusy(t)
	c.jobsDone++
	if t > c.tEnd {
		c.tEnd = t
	}

	w := float64(j.Wait())
	c.perJob = append(c.perJob, JobPoint{Arrival: j.Arrival, Finish: t, Wait: w})
	r := float64(j.RunTime())
	c.runSum += r
	// Per-job bounded slowdown with the conventional 10s floor.
	den := math.Max(r, 10)
	c.slowSum += (w + den) / den
	if j.Class == job.Dedicated {
		c.dedTotal++
		c.dedSum += w
		if j.Wait() == 0 {
			c.dedOnTime++
		}
	} else {
		c.batchSum += w
		c.batchCount++
	}
}

// JobKilled accounts for a running job killed by a node-group failure at
// time t: its processors free up, the work completed since lostFrom is
// lost, and it either re-enters the waiting queue later (requeued — a
// fresh JobArrived will fire at its resubmission) or leaves the system.
// The engine passes the job's restart point (job.Job.CkptAt) for requeued
// kills and its start time for dropped ones, which never come back.
func (c *Collector) JobKilled(j *job.Job, t int64, requeued bool, lostFrom int64) {
	c.integrate(t)
	c.busy -= j.Size
	if c.busy < 0 {
		panic(fmt.Sprintf("metrics: negative busy %d after kill at t=%d", c.busy, t))
	}
	c.noteBusy(t)
	c.killed++
	if lost := t - lostFrom; lost > 0 {
		c.lostWork += float64(lost) * float64(j.Size)
	}
	if requeued {
		c.retried++
	} else {
		c.dropped++
	}
}

// CheckpointTaken counts one checkpoint and the cost charged to the job's
// remaining runtime for taking it (zero-cost checkpoints still count). The
// overhead accumulates in processor-seconds — cost x size, since all of
// the job's processors stay occupied for the extra time — so it is
// directly comparable against LostWorkSeconds in the cost trade.
func (c *Collector) CheckpointTaken(cost int64, size int) {
	c.checkpoints++
	c.ckptOverhead += float64(cost) * float64(size)
}

// CapacityChanged records the out-of-service processor count after a
// failure or repair at time t, feeding the down-capacity integral.
func (c *Collector) CapacityChanged(downProcs int, t int64) {
	c.integrate(t)
	c.downProcs = downProcs
}

// SizeChanged accounts for an EP/RP resize of a running job at time t.
func (c *Collector) SizeChanged(delta int, t int64) {
	c.integrate(t)
	c.busy += delta
	if c.busy < 0 || c.busy > c.m {
		panic(fmt.Sprintf("metrics: busy %d out of range after resize at t=%d", c.busy, t))
	}
	c.noteBusy(t)
}

// SchedulerResized counts one applied system-initiated resize (a scheduler
// proposal or a fault-path shrink).
func (c *Collector) SchedulerResized() { c.schedResizes++ }

// ProcsShrunk adds the processor-seconds of planned capacity a shrink ceded
// (the size reduction times the remaining estimated runtime at the shrink).
func (c *Collector) ProcsShrunk(procSeconds float64) { c.shrunkProcSecs += procSeconds }

// ResizeOverheadApplied adds the reconfiguration cost charged to one
// work-conserving resize.
func (c *Collector) ResizeOverheadApplied(seconds int64) { c.reconfigSecs += float64(seconds) }

// BusyStep is one entry of the busy-count step function: from T until the
// next entry, Busy processors are busy.
type BusyStep struct {
	T    int64 `json:"t"`
	Busy int   `json:"busy"`
}

// JobPoint is one completed job's record (arrival, finish, wait).
type JobPoint struct {
	Arrival int64   `json:"arrival"`
	Finish  int64   `json:"finish"`
	Wait    float64 `json:"wait"`
}

// Samples are the per-job sample vectors of one run: what Merge needs
// beyond the Summary to compute exact order statistics and the steady-state
// window across several runs. Both vectors are in the collector's
// accumulation order; the engine reports completions in time order, so
// PerJob finish times are non-decreasing, which the steady-state window
// relies on.
type Samples struct {
	// PerJob holds (arrival, finish, wait) per completed job.
	PerJob []JobPoint `json:"per_job,omitempty"`
	// BusySteps is the busy-processor step function (one entry per change).
	BusySteps []BusyStep `json:"busy_steps,omitempty"`
}

// Samples returns the collector's sample vectors without copying them:
// treat them as read-only, and as valid only until the next accounting
// call, which may append to them or rewrite the last busy step.
func (c *Collector) Samples() *Samples {
	return &Samples{PerJob: c.perJob, BusySteps: c.busySteps}
}

// Snapshot is the collector's complete accumulator state, sufficient to
// resume metering mid-run. The per-job series keep their accumulation
// order, so a restored collector's Summary is bit-identical to the
// uninterrupted run's (float sums depend on order).
type Snapshot struct {
	M           int        `json:"m"`
	Busy        int        `json:"busy"`
	LastT       int64      `json:"last_t"`
	Area        float64    `json:"area"`
	HaveT0      bool       `json:"have_t0"`
	T0          int64      `json:"t0"`
	TEnd        int64      `json:"t_end"`
	RunSum      float64    `json:"run_sum"`
	SlowSum     float64    `json:"slow_sum"`
	BatchSum    float64    `json:"batch_sum"`
	BatchCount  int        `json:"batch_count"`
	DedSum      float64    `json:"ded_sum"`
	DedOnTime   int        `json:"ded_on_time"`
	DedTotal    int        `json:"ded_total"`
	JobsStarted int        `json:"jobs_started"`
	JobsDone    int        `json:"jobs_done"`
	Queued      int        `json:"queued"`
	MaxQueued   int        `json:"max_queued"`
	Killed      int        `json:"killed,omitempty"`
	Retried     int        `json:"retried,omitempty"`
	Dropped     int        `json:"dropped,omitempty"`
	LostWork    float64    `json:"lost_work,omitempty"`
	DownProcs   int        `json:"down_procs,omitempty"`
	DownArea    float64    `json:"down_area,omitempty"`
	Checkpoints int        `json:"checkpoints,omitempty"`
	CkptCost    float64    `json:"ckpt_cost,omitempty"`
	BusySteps   []BusyStep `json:"busy_steps,omitempty"`
	PerJob      []JobPoint `json:"per_job,omitempty"`

	SchedResizes   int     `json:"sched_resizes,omitempty"`
	ShrunkProcSecs float64 `json:"shrunk_proc_secs,omitempty"`
	ReconfigSecs   float64 `json:"reconfig_secs,omitempty"`
}

// Snapshot captures the collector state for NewCollectorFromSnapshot.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		M: c.m, Busy: c.busy, LastT: c.lastT, Area: c.area,
		HaveT0: c.haveT0, T0: c.t0, TEnd: c.tEnd,
		RunSum: c.runSum, SlowSum: c.slowSum, BatchSum: c.batchSum, BatchCount: c.batchCount,
		DedSum: c.dedSum, DedOnTime: c.dedOnTime, DedTotal: c.dedTotal,
		JobsStarted: c.jobsStarted, JobsDone: c.jobsDone,
		Queued: c.queued, MaxQueued: c.maxQueued,
		Killed: c.killed, Retried: c.retried, Dropped: c.dropped,
		LostWork: c.lostWork, DownProcs: c.downProcs, DownArea: c.downArea,
		Checkpoints: c.checkpoints, CkptCost: c.ckptOverhead,
		SchedResizes: c.schedResizes, ShrunkProcSecs: c.shrunkProcSecs,
		ReconfigSecs: c.reconfigSecs,
		BusySteps:    append([]BusyStep(nil), c.busySteps...),
		PerJob:       append([]JobPoint(nil), c.perJob...),
	}
}

// NewCollectorFromSnapshot reconstructs a collector mid-run.
func NewCollectorFromSnapshot(s Snapshot) *Collector {
	return &Collector{
		m: s.M, busy: s.Busy, lastT: s.LastT, area: s.Area,
		haveT0: s.HaveT0, t0: s.T0, tEnd: s.TEnd,
		runSum: s.RunSum, slowSum: s.SlowSum, batchSum: s.BatchSum, batchCount: s.BatchCount,
		dedSum: s.DedSum, dedOnTime: s.DedOnTime, dedTotal: s.DedTotal,
		jobsStarted: s.JobsStarted, jobsDone: s.JobsDone,
		queued: s.Queued, maxQueued: s.MaxQueued,
		killed: s.Killed, retried: s.Retried, dropped: s.Dropped,
		lostWork: s.LostWork, downProcs: s.DownProcs, downArea: s.DownArea,
		checkpoints: s.Checkpoints, ckptOverhead: s.CkptCost,
		schedResizes: s.SchedResizes, shrunkProcSecs: s.ShrunkProcSecs,
		reconfigSecs: s.ReconfigSecs,
		busySteps:    append([]BusyStep(nil), s.BusySteps...),
		perJob:       append([]JobPoint(nil), s.PerJob...),
	}
}

// Summary is the digest of one run.
type Summary struct {
	Jobs        int
	MachineSize int
	// Window is the measurement span: first arrival to last completion.
	WindowStart, WindowEnd int64

	// Utilization is the paper's mean utilization: busy processor-seconds
	// over M * window.
	Utilization float64
	// MeanWait and MeanRun are in seconds.
	MeanWait float64
	MeanRun  float64
	// Slowdown is the paper's aggregate definition:
	// (avg wait + avg runtime) / avg runtime.
	Slowdown float64

	// SteadyUtilization and SteadyMeanWait evaluate the same measures over
	// the steady-state window only — between the 10th-percentile and
	// 90th-percentile job completion instants — removing the machine-
	// filling ramp-up and the final drain, which otherwise depress
	// utilization identically for every scheduler. SteadyMeanWait covers
	// jobs that *arrived* within the window.
	SteadyUtilization float64
	SteadyMeanWait    float64
	SteadyWindow      [2]int64

	// MaxQueueDepth is the largest number of jobs simultaneously waiting.
	MaxQueueDepth int

	// Diagnostics beyond the paper's headline metrics.
	MedianWait      float64
	P95Wait         float64
	MaxWait         float64
	MeanBoundedSlow float64
	MeanBatchWait   float64
	MeanDedWait     float64
	DedicatedOnTime float64 // fraction started exactly at the requested time
	DedicatedJobs   int
	JobsStarted     int
	JobsFinished    int

	// Fault-injection accounting (all zero when no fault model is
	// configured). KilledJobs counts kills (a job killed twice counts
	// twice); RetriedJobs of those kills were requeued, DroppedJobs left
	// the system. LostWorkSeconds is the processor-seconds of completed
	// work the kills destroyed: for a requeued kill, the work since the
	// victim's restart point (job.Job.CkptAt; zero under RemainingRuntime
	// without a checkpoint policy); for a dropped one, its whole attempt.
	// DownProcSeconds integrates out-of-service capacity over the
	// measurement window.
	KilledJobs      int
	RetriedJobs     int
	DroppedJobs     int
	LostWorkSeconds float64
	DownProcSeconds float64

	// Checkpoint accounting (all zero when the checkpoint policy is none).
	// CheckpointsTaken counts checkpoints across all running jobs;
	// CheckpointOverheadSeconds is the total cost charged for them, in
	// processor-seconds (cost x job size per checkpoint). Lost work and
	// checkpoint overhead together decompose exactly what the fault
	// pipeline cost the machine, in the same processor-second currency.
	CheckpointsTaken          int
	CheckpointOverheadSeconds float64

	// Malleability accounting (all zero when Malleable mode is off).
	// SchedulerResizes counts applied system-initiated resizes (scheduler
	// proposals and fault-path shrinks); ShrunkProcSeconds is the planned
	// capacity ceded by shrinks (size reduction × remaining estimate);
	// ReconfigOverheadSeconds totals the per-resize reconfiguration cost
	// charged to resized jobs.
	SchedulerResizes        int
	ShrunkProcSeconds       float64
	ReconfigOverheadSeconds float64
}

// Summary finalizes the run. It must be called after the last completion.
func (c *Collector) Summary() Summary {
	s := Summary{
		Jobs:          c.jobsDone,
		MachineSize:   c.m,
		WindowStart:   c.t0,
		WindowEnd:     c.tEnd,
		JobsStarted:   c.jobsStarted,
		JobsFinished:  c.jobsDone,
		DedicatedJobs: c.dedTotal,

		KilledJobs:      c.killed,
		RetriedJobs:     c.retried,
		DroppedJobs:     c.dropped,
		LostWorkSeconds: c.lostWork,

		CheckpointsTaken:          c.checkpoints,
		CheckpointOverheadSeconds: c.ckptOverhead,

		SchedulerResizes:        c.schedResizes,
		ShrunkProcSeconds:       c.shrunkProcSecs,
		ReconfigOverheadSeconds: c.reconfigSecs,
	}
	c.integrate(c.tEnd)
	s.DownProcSeconds = c.downArea
	span := float64(c.tEnd - c.t0)
	if span > 0 {
		s.Utilization = c.area / (span * float64(c.m))
	}
	if n := len(c.perJob); n > 0 {
		var waitSum float64
		for _, p := range c.perJob {
			waitSum += p.Wait
		}
		s.MeanWait = waitSum / float64(n)
	}
	if c.jobsDone > 0 {
		s.MeanRun = c.runSum / float64(c.jobsDone)
		s.MeanBoundedSlow = c.slowSum / float64(c.jobsDone)
	}
	if s.MeanRun > 0 {
		s.Slowdown = (s.MeanWait + s.MeanRun) / s.MeanRun
	}
	if c.batchCount > 0 {
		s.MeanBatchWait = c.batchSum / float64(c.batchCount)
	}
	if c.dedTotal > 0 {
		s.MeanDedWait = c.dedSum / float64(c.dedTotal)
	}
	if c.dedTotal > 0 {
		s.DedicatedOnTime = float64(c.dedOnTime) / float64(c.dedTotal)
	}
	fillOrderStats(&s, []*Samples{{PerJob: c.perJob, BusySteps: c.busySteps}})
	s.MaxQueueDepth = c.maxQueued
	return s
}

// Merge combines the summaries of runs on disjoint machines — the clusters
// of a sharded run — into the global view; samples[i] must be the sample
// vectors of the run summarized by sums[i]. Walking the runs in index
// order keeps every float accumulation deterministic. One run's summary is
// returned as is. Otherwise the merge sums the job counts, the fault,
// checkpoint and resize accounting, and the machine sizes; spans the
// window from the earliest first arrival to the latest completion;
// recomputes Utilization from the runs' busy areas over that window and
// machine; and takes job-weighted means of the per-run wait, runtime,
// slowdown, bounded slowdown and per-class waits. MaxWait, MedianWait, P95Wait and the steady-state
// window, utilization and mean wait follow the collector's own rules over
// the union of the samples, so they equal what one collector watching
// every run would report. MaxQueueDepth stays zero: a global maximum needs
// the sum of the per-run depth step functions, which are not kept.
func Merge(sums []Summary, samples []*Samples) Summary {
	if len(sums) == 1 {
		return sums[0]
	}
	var g Summary
	first := true
	// Busy processor-seconds reconstruct exactly from each run's
	// utilization: area_i = util_i × span_i × M_i.
	var area, waitSum, runSum, slowSum, boundedSum, batchSum, dedSum, onTimeSum float64
	var batchJobs int
	for _, s := range sums {
		g.MachineSize += s.MachineSize
		if s.Jobs == 0 && s.JobsStarted == 0 {
			continue
		}
		if first || s.WindowStart < g.WindowStart {
			g.WindowStart = s.WindowStart
		}
		if first || s.WindowEnd > g.WindowEnd {
			g.WindowEnd = s.WindowEnd
		}
		first = false
		n := float64(s.Jobs)
		g.Jobs += s.Jobs
		g.JobsStarted += s.JobsStarted
		g.JobsFinished += s.JobsFinished
		g.DedicatedJobs += s.DedicatedJobs
		batchJobs += s.Jobs - s.DedicatedJobs
		area += s.Utilization * float64(s.WindowEnd-s.WindowStart) * float64(s.MachineSize)
		waitSum += s.MeanWait * n
		runSum += s.MeanRun * n
		// Slowdown merges as the job-weighted mean of the per-run
		// aggregate slowdowns. Recomputing (MeanWait+MeanRun)/MeanRun from
		// the global means disagrees with that job-weighted view whenever
		// the runs' MeanRun differ (the ratio of averages is not the
		// average of ratios); the weighted sum treats Slowdown like every
		// other mean.
		slowSum += s.Slowdown * n
		boundedSum += s.MeanBoundedSlow * n
		batchSum += s.MeanBatchWait * float64(s.Jobs-s.DedicatedJobs)
		dedSum += s.MeanDedWait * float64(s.DedicatedJobs)
		onTimeSum += s.DedicatedOnTime * float64(s.DedicatedJobs)
		g.KilledJobs += s.KilledJobs
		g.RetriedJobs += s.RetriedJobs
		g.DroppedJobs += s.DroppedJobs
		g.LostWorkSeconds += s.LostWorkSeconds
		g.DownProcSeconds += s.DownProcSeconds
		g.CheckpointsTaken += s.CheckpointsTaken
		g.CheckpointOverheadSeconds += s.CheckpointOverheadSeconds
		g.SchedulerResizes += s.SchedulerResizes
		g.ShrunkProcSeconds += s.ShrunkProcSeconds
		g.ReconfigOverheadSeconds += s.ReconfigOverheadSeconds
	}
	if span := float64(g.WindowEnd - g.WindowStart); span > 0 {
		g.Utilization = area / (span * float64(g.MachineSize))
	}
	if g.Jobs > 0 {
		n := float64(g.Jobs)
		g.MeanWait = waitSum / n
		g.MeanRun = runSum / n
		g.Slowdown = slowSum / n
		g.MeanBoundedSlow = boundedSum / n
	}
	if batchJobs > 0 {
		g.MeanBatchWait = batchSum / float64(batchJobs)
	}
	if g.DedicatedJobs > 0 {
		g.MeanDedWait = dedSum / float64(g.DedicatedJobs)
		g.DedicatedOnTime = onTimeSum / float64(g.DedicatedJobs)
	}
	fillOrderStats(&g, samples)
	return g
}

// fillOrderStats sets the statistics that need every sample — MaxWait,
// MedianWait, P95Wait, and the steady-state window, utilization and mean
// wait — over the union of the parts, reading s's window and machine size.
// Median and p95 index the waits as a sort of them would (quickselect
// finds the same value in expected O(n)). The steady-state window spans
// the 10th- to 90th-percentile completion instants; with fewer than 10
// completions it is the whole measurement window and its measures stay
// zero.
func fillOrderStats(s *Summary, parts []*Samples) {
	n := 0
	for _, p := range parts {
		n += len(p.PerJob)
	}
	s.SteadyWindow = [2]int64{s.WindowStart, s.WindowEnd}
	if n == 0 {
		return
	}
	waits := make([]float64, 0, n)
	for _, p := range parts {
		for _, q := range p.PerJob {
			waits = append(waits, q.Wait)
		}
	}
	s.MaxWait = slices.Max(waits)
	s.MedianWait = kth(waits, int(0.5*float64(n-1)))
	s.P95Wait = kth(waits, int(0.95*float64(n-1)))
	if n < 10 {
		return
	}
	t0, t1 := finishRanks(parts, n/10, n-1-n/10)
	s.SteadyWindow = [2]int64{t0, t1}
	if t1 <= t0 {
		return
	}
	var area, waitSum float64
	var cnt int
	for _, p := range parts {
		area += windowArea(p.BusySteps, t0, t1)
		for _, q := range p.PerJob {
			if q.Arrival >= t0 && q.Arrival <= t1 {
				waitSum += q.Wait
				cnt++
			}
		}
	}
	s.SteadyUtilization = area / (float64(t1-t0) * float64(s.MachineSize))
	if cnt > 0 {
		s.SteadyMeanWait = waitSum / float64(cnt)
	}
}

// finishRanks returns the lo-th and hi-th smallest completion instants
// (0-based, lo <= hi) across the parts. Each part's PerJob is in
// completion order, so walking the part heads — the smallest head first —
// visits the instants in sorted order without sorting or copying them.
func finishRanks(parts []*Samples, lo, hi int) (tlo, thi int64) {
	heads := make([]int, len(parts))
	for r := 0; r <= hi; r++ {
		best := -1
		var bt int64
		for i, p := range parts {
			if h := heads[i]; h < len(p.PerJob) {
				if t := p.PerJob[h].Finish; best < 0 || t < bt {
					best, bt = i, t
				}
			}
		}
		heads[best]++
		if r == lo {
			tlo = bt
		}
		thi = bt
	}
	return tlo, thi
}

// windowArea integrates a busy step function over [t0, t1]: the busy
// processor-seconds inside the window.
func windowArea(steps []BusyStep, t0, t1 int64) float64 {
	var area float64
	for i, st := range steps {
		segStart := max(st.T, t0)
		segEnd := t1
		if i+1 < len(steps) && steps[i+1].T < segEnd {
			segEnd = steps[i+1].T
		}
		if segEnd > segStart {
			area += float64(st.Busy) * float64(segEnd-segStart)
		}
		if i+1 < len(steps) && steps[i+1].T >= t1 {
			break
		}
	}
	return area
}

// kth returns the k-th smallest element (0-based) of xs, reordering xs in
// place — the exact value a full sort would put at index k, computed by
// Hoare-partition quickselect with median-of-three pivots in expected O(n).
// Values must be totally ordered (the collector never records NaN waits).
func kth[T cmp.Ordered](xs []T, k int) T {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return xs[k]
		}
	}
	return xs[k]
}

// String renders the headline metrics.
func (s Summary) String() string {
	return fmt.Sprintf("util=%.4f wait=%.1fs run=%.1fs slowdown=%.3f jobs=%d",
		s.Utilization, s.MeanWait, s.MeanRun, s.Slowdown, s.Jobs)
}

// Average combines summaries from repeated seeds into their arithmetic
// mean, the way each plotted point aggregates runs.
func Average(sums []Summary) Summary {
	if len(sums) == 0 {
		return Summary{}
	}
	out := sums[0]
	n := float64(len(sums))
	acc := func(get func(*Summary) *float64) {
		var t float64
		for i := range sums {
			t += *get(&sums[i])
		}
		*get(&out) = t / n
	}
	acc(func(s *Summary) *float64 { return &s.Utilization })
	acc(func(s *Summary) *float64 { return &s.MeanWait })
	acc(func(s *Summary) *float64 { return &s.MeanRun })
	acc(func(s *Summary) *float64 { return &s.Slowdown })
	acc(func(s *Summary) *float64 { return &s.MedianWait })
	acc(func(s *Summary) *float64 { return &s.P95Wait })
	acc(func(s *Summary) *float64 { return &s.MaxWait })
	acc(func(s *Summary) *float64 { return &s.MeanBoundedSlow })
	acc(func(s *Summary) *float64 { return &s.MeanBatchWait })
	acc(func(s *Summary) *float64 { return &s.MeanDedWait })
	acc(func(s *Summary) *float64 { return &s.DedicatedOnTime })
	acc(func(s *Summary) *float64 { return &s.SteadyUtilization })
	acc(func(s *Summary) *float64 { return &s.SteadyMeanWait })
	acc(func(s *Summary) *float64 { return &s.LostWorkSeconds })
	acc(func(s *Summary) *float64 { return &s.DownProcSeconds })
	acc(func(s *Summary) *float64 { return &s.CheckpointOverheadSeconds })
	acc(func(s *Summary) *float64 { return &s.ShrunkProcSeconds })
	acc(func(s *Summary) *float64 { return &s.ReconfigOverheadSeconds })
	return out
}

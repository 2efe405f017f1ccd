package main

import (
	"reflect"
	"strings"
	"sync"
	"time"

	"elastisched/internal/job"
	"elastisched/internal/sched"
)

// policyStats accumulates the calls one policy instance received through
// the timing decorator. A decorator is driven by one goroutine at a time
// (one session steps one policy), so the fields need no locking; readers
// look at them only after the run that owns the policy has returned.
type policyStats struct {
	layer string // "core" (LOS family) or "sched" (baselines)

	calls    int64
	progress int64 // calls that left ctx.Progress set
	window   int64 // Σ Batch.Len() at call
	busy     time.Duration

	resizeCalls int64
	resizeBusy  time.Duration
	// pending counts the resize proposals of the last ProposeResizes call
	// that the engine has not yet applied; the counting observer matches
	// them against JobResized(auto) to tell scheduler resizes from
	// fault-path shrinks.
	pending int

	instants int64 // distinct simulated instants the policy ran at
	lastNow  int64

	set *policySet
}

// policyLayer names the module a policy type lives in: "core" for the
// LOS family, "sched" for the baselines.
func policyLayer(s sched.Scheduler) string {
	if ar, ok := s.(*sched.AutoResize); ok {
		s = ar.Inner
	}
	name := strings.TrimPrefix(reflect.TypeOf(s).String(), "*")
	if pkg, _, ok := strings.Cut(name, "."); ok && pkg == "core" {
		return "core"
	}
	return "sched"
}

// policySet collects the stats of every policy a traced pass built. The
// dispatcher constructs its per-cluster policies on worker goroutines, so
// registration is locked.
type policySet struct {
	mu    sync.Mutex
	stats []*policyStats
	// busy totals every registered policy's busy time (Schedule and resize
	// proposals), for the spans to subtract. Traced passes step one
	// session at a time, so the decorators add to it without locking.
	busy time.Duration
}

func (p *policySet) add(s *policyStats) {
	p.mu.Lock()
	p.stats = append(p.stats, s)
	s.set = p
	p.mu.Unlock()
}

// all returns the registered stats; call it after the runs returned.
func (p *policySet) all() []*policyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*policyStats(nil), p.stats...)
}

// instrument wraps a freshly built policy in the timing decorator and
// registers its stats with set. The decorator exposes exactly the optional
// interfaces (sched.Stateful, sched.Snapshotter, sched.Malleable) of the
// policy it wraps, so the engine takes the same paths (delta feed, state
// capture, resize proposals) with and without it. For the AutoResize
// decorator the inner policy is wrapped, so Schedule is attributed to the
// policy that decides, and AutoResize itself is wrapped again to time its
// resize proposals.
func instrument(s sched.Scheduler, set *policySet) (sched.Scheduler, *policyStats) {
	ps := &policyStats{layer: policyLayer(s), lastNow: -1}
	set.add(ps)
	if ar, ok := s.(*sched.AutoResize); ok {
		ar.Inner = decorate(ar.Inner, ps, true)
		return decorate(ar, ps, false), ps
	}
	return decorate(s, ps, true), ps
}

// timed is the Scheduler half of the decorator.
type timed struct {
	inner sched.Scheduler
	ps    *policyStats
	// schedule selects whether Schedule calls are timed here; the outer
	// AutoResize wrapper leaves them to the wrapped inner policy.
	schedule bool
}

func (t *timed) Name() string        { return t.inner.Name() }
func (t *timed) Heterogeneous() bool { return t.inner.Heterogeneous() }

func (t *timed) Schedule(ctx *sched.Context) {
	if !t.schedule {
		t.inner.Schedule(ctx)
		return
	}
	ps := t.ps
	ps.pending = 0
	if ctx.Now != ps.lastNow {
		ps.instants++
		ps.lastNow = ctx.Now
	}
	ps.window += int64(ctx.Batch.Len())
	start := time.Now()
	t.inner.Schedule(ctx)
	d := time.Since(start)
	ps.busy += d
	ps.set.busy += d
	ps.calls++
	if ctx.Progress {
		ps.progress++
	}
}

// fwdStateful forwards the engine's delta feed untimed: deltas are engine
// work delivered to the policy's caches, not scheduling decisions.
type fwdStateful struct{ s sched.Stateful }

func (f fwdStateful) ResetDeltas()                             { f.s.ResetDeltas() }
func (f fwdStateful) JobArrived(j *job.Job, now int64)         { f.s.JobArrived(j, now) }
func (f fwdStateful) JobStarted(j *job.Job, now int64)         { f.s.JobStarted(j, now) }
func (f fwdStateful) JobFinished(j *job.Job, now int64)        { f.s.JobFinished(j, now) }
func (f fwdStateful) JobRetimed(j *job.Job, oldEnd, now int64) { f.s.JobRetimed(j, oldEnd, now) }
func (f fwdStateful) JobResized(j *job.Job, oldSize int, now int64) {
	f.s.JobResized(j, oldSize, now)
}
func (f fwdStateful) QueueChanged()                   { f.s.QueueChanged() }
func (f fwdStateful) JobKilled(j *job.Job, now int64) { f.s.JobKilled(j, now) }
func (f fwdStateful) CapacityChanged(now int64)       { f.s.CapacityChanged(now) }

type fwdSnapshotter struct{ s sched.Snapshotter }

func (f fwdSnapshotter) SnapshotState() ([]byte, error) { return f.s.SnapshotState() }
func (f fwdSnapshotter) RestoreState(b []byte) error    { return f.s.RestoreState(b) }

type fwdMalleable struct {
	m  sched.Malleable
	ps *policyStats
}

func (f fwdMalleable) ProposeResizes(ctx *sched.Context) []sched.Resize {
	start := time.Now()
	out := f.m.ProposeResizes(ctx)
	d := time.Since(start)
	f.ps.resizeBusy += d
	f.ps.set.busy += d
	f.ps.resizeCalls++
	for _, p := range out {
		if p.Job != nil && p.NewSize != p.Job.Size {
			f.ps.pending++
		}
	}
	return out
}

// decorate builds the decorator variant matching s's optional interfaces.
func decorate(s sched.Scheduler, ps *policyStats, schedule bool) sched.Scheduler {
	t := &timed{inner: s, ps: ps, schedule: schedule}
	st, isSt := s.(sched.Stateful)
	sn, isSn := s.(sched.Snapshotter)
	ml, isMl := s.(sched.Malleable)
	fs, fn, fm := fwdStateful{st}, fwdSnapshotter{sn}, fwdMalleable{ml, ps}
	switch {
	case isSt && isSn && isMl:
		return struct {
			*timed
			fwdStateful
			fwdSnapshotter
			fwdMalleable
		}{t, fs, fn, fm}
	case isSt && isSn:
		return struct {
			*timed
			fwdStateful
			fwdSnapshotter
		}{t, fs, fn}
	case isSt && isMl:
		return struct {
			*timed
			fwdStateful
			fwdMalleable
		}{t, fs, fm}
	case isSn && isMl:
		return struct {
			*timed
			fwdSnapshotter
			fwdMalleable
		}{t, fn, fm}
	case isSt:
		return struct {
			*timed
			fwdStateful
		}{t, fs}
	case isSn:
		return struct {
			*timed
			fwdSnapshotter
		}{t, fn}
	case isMl:
		return struct {
			*timed
			fwdMalleable
		}{t, fm}
	}
	return t
}

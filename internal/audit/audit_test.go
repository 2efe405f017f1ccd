package audit

import (
	"strings"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/trace"
)

func opts() Options { return Options{M: 320, Unit: 32} }

func wlOf(jobs ...*job.Job) *cwf.Workload {
	w := &cwf.Workload{Jobs: jobs}
	w.Sort()
	return w
}

func bj(id, size int, dur, arr int64) *job.Job {
	return &job.Job{ID: id, Size: size, Dur: dur, Arrival: arr, ReqStart: -1, Class: job.Batch}
}

func span(id, size int, start, end int64, groups ...int) trace.Span {
	return trace.Span{JobID: id, Size: size, Start: start, End: end, Groups: groups, ReqStart: -1}
}

func TestCleanScheduleOK(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0), bj(2, 64, 50, 10))
	spans := []trace.Span{
		span(1, 64, 0, 100, 0, 1),
		span(2, 64, 10, 60, 2, 3),
	}
	rep := Check(w, spans, opts())
	if !rep.OK() {
		t.Fatalf("clean schedule flagged: %v", rep.Violations)
	}
	if rep.PeakBusy != 128 || rep.Spans != 2 {
		t.Errorf("peak=%d spans=%d", rep.PeakBusy, rep.Spans)
	}
	if rep.Error() != nil {
		t.Error("Error() should be nil for OK report")
	}
}

func TestDetectsStartBeforeArrival(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 50))
	rep := Check(w, []trace.Span{span(1, 64, 10, 110, 0, 1)}, opts())
	wantViolation(t, rep, "before arrival")
}

func TestDetectsDedicatedEarlyStart(t *testing.T) {
	d := &job.Job{ID: 1, Size: 64, Dur: 100, Arrival: 0, ReqStart: 500, Class: job.Dedicated}
	w := wlOf(d)
	sp := span(1, 64, 400, 500, 0, 1)
	sp.Class = job.Dedicated
	sp.ReqStart = 500
	rep := Check(w, []trace.Span{sp}, opts())
	wantViolation(t, rep, "before requested start")
}

func TestDetectsOvercommit(t *testing.T) {
	// Two 192-proc jobs overlapping on a 320-proc machine.
	w := wlOf(bj(1, 192, 100, 0), bj(2, 192, 100, 0))
	spans := []trace.Span{
		span(1, 192, 0, 100, 0, 1, 2, 3, 4, 5),
		span(2, 192, 50, 150, 4, 5, 6, 7, 8, 9),
	}
	rep := Check(w, spans, opts())
	wantViolation(t, rep, "overcommitted")
	wantViolation(t, rep, "double-booked")
}

func TestAllowsBackToBackOnSameGroups(t *testing.T) {
	w := wlOf(bj(1, 320, 100, 0), bj(2, 320, 100, 0))
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	spans := []trace.Span{
		span(1, 320, 0, 100, all...),
		span(2, 320, 100, 200, all...), // starts exactly at the release
	}
	rep := Check(w, spans, opts())
	if !rep.OK() {
		t.Fatalf("back-to-back flagged: %v", rep.Violations)
	}
}

func TestDetectsWrongRuntime(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	rep := Check(w, []trace.Span{span(1, 64, 0, 60, 0, 1)}, opts())
	wantViolation(t, rep, "ran 60")
}

func TestElasticSkipsRuntimeCheck(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	o := opts()
	o.Elastic = true
	rep := Check(w, []trace.Span{span(1, 64, 0, 60, 0, 1)}, o)
	if !rep.OK() {
		t.Fatalf("elastic runtime change flagged: %v", rep.Violations)
	}
}

func TestRespectsActualRuntime(t *testing.T) {
	j := bj(1, 64, 100, 0)
	j.Actual = 40 // premature termination
	w := wlOf(j)
	rep := Check(w, []trace.Span{span(1, 64, 0, 40, 0, 1)}, opts())
	if !rep.OK() {
		t.Fatalf("premature termination flagged: %v", rep.Violations)
	}
}

func TestDetectsMissingAndPhantomJobs(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	rep := Check(w, []trace.Span{span(9, 64, 0, 100, 0, 1)}, opts())
	wantViolation(t, rep, "never submitted")
	wantViolation(t, rep, "never placed")
}

func TestDetectsDoublePlacement(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	spans := []trace.Span{span(1, 64, 0, 100, 0, 1), span(1, 64, 200, 300, 0, 1)}
	rep := Check(w, spans, opts())
	wantViolation(t, rep, "placed twice")
}

func TestDetectsGroupSizeMismatch(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	rep := Check(w, []trace.Span{span(1, 64, 0, 100, 0)}, opts()) // one group for 64 procs
	wantViolation(t, rep, "holds 1 groups")
}

func TestDetectsOutOfRangeGroup(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	rep := Check(w, []trace.Span{span(1, 64, 0, 100, 0, 99)}, opts())
	wantViolation(t, rep, "out-of-range")
}

func TestBadGeometryRejected(t *testing.T) {
	rep := Check(wlOf(), nil, Options{M: 100, Unit: 32})
	wantViolation(t, rep, "geometry")
}

func TestSizeElasticSkipsSweep(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0), bj(2, 320, 100, 0))
	// Overlapping placements that would overcommit; with SizeElastic the
	// sweep is skipped (resizes make dispatch snapshots unreliable).
	spans := []trace.Span{
		span(1, 64, 0, 100, 0, 1),
		span(2, 320, 0, 100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
	}
	o := opts()
	o.Elastic = true
	o.SizeElastic = true
	rep := Check(w, spans, o)
	if !rep.OK() {
		t.Fatalf("size-elastic sweep not skipped: %v", rep.Violations)
	}
}

func wantViolation(t *testing.T, rep Report, substr string) {
	t.Helper()
	for _, v := range rep.Violations {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Errorf("no violation containing %q; got %v", substr, rep.Violations)
}

// --- fault-aware rules ----------------------------------------------------

func fopts(tr *fault.Trace, p fault.RetryPolicy) Options {
	o := opts()
	o.Faults = tr
	o.Retry = p
	return o
}

func killedSpan(id, size int, start, end int64, groups ...int) trace.Span {
	sp := span(id, size, start, end, groups...)
	sp.Killed = true
	return sp
}

func ftr(evs ...fault.Event) *fault.Trace { return &fault.Trace{Events: evs} }

func fev(t int64, k fault.Kind, groups ...int) fault.Event {
	return fault.Event{Time: t, Kind: k, Groups: groups}
}

func TestFaultCleanKillAndRetryOK(t *testing.T) {
	// Job killed at the failure instant, resubmitted, reruns in full on a
	// healthy group: lawful under the default retry policy.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 140, 2, 3),
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{}))
	if !rep.OK() {
		t.Fatalf("lawful kill+retry flagged: %v", rep.Violations)
	}
}

func TestFaultDetectsPlacementOnDownGroup(t *testing.T) {
	// Group 0 is down [40, 200); the span keeps running on it past the
	// failure instant.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	rep := Check(w, []trace.Span{span(1, 64, 0, 100, 0, 1)}, fopts(tr, fault.RetryPolicy{}))
	wantViolation(t, rep, "occupies group 0 which is down [40, 200)")
}

func TestFaultDetectsResubmitUnderDropPolicy(t *testing.T) {
	// A killed job must never resubmit under a drop policy.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 140, 2, 3),
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{Mode: fault.Drop}))
	wantViolation(t, rep, "resubmitted after its kill at t=40 under a drop policy")
}

func TestFaultDetectsDedicatedResubmission(t *testing.T) {
	d := &job.Job{ID: 1, Size: 64, Dur: 100, Arrival: 0, ReqStart: 0, Class: job.Dedicated}
	w := wlOf(d)
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	s1 := killedSpan(1, 64, 0, 40, 0, 1)
	s1.Class = job.Dedicated
	s2 := span(1, 64, 40, 140, 2, 3)
	s2.Class = job.Dedicated
	rep := Check(w, []trace.Span{s1, s2}, fopts(tr, fault.RetryPolicy{}))
	wantViolation(t, rep, "dedicated job 1 resubmitted after its kill")
}

func TestFaultDetectsRepairBeforeFailure(t *testing.T) {
	// A repair with no preceding failure is a trace-level inconsistency the
	// report must surface.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(10, fault.Repair, 3))
	rep := Check(w, []trace.Span{span(1, 64, 0, 100, 0, 1)}, fopts(tr, fault.RetryPolicy{}))
	wantViolation(t, rep, "group 3 repaired at t=10 with no preceding failure")
}

func TestFaultDetectsRetryBudgetOverrun(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(10, fault.Fail, 0), fev(11, fault.Repair, 0),
		fev(50, fault.Fail, 2), fev(51, fault.Repair, 2))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 10, 0, 1),
		killedSpan(1, 64, 11, 50, 2, 3),
		span(1, 64, 51, 151, 4, 5),
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{MaxRetries: 1}))
	wantViolation(t, rep, "resubmitted 2 times, retry limit 1")
}

func TestFaultDetectsBackoffViolation(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 45, 145, 2, 3), // backoff is 10: too early
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{Backoff: 10}))
	wantViolation(t, rep, "restarted at 45 before backoff 10")
}

func TestFaultDetectsShortFullRestart(t *testing.T) {
	// Full restart must rerun the whole effective runtime.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 100, 2, 3), // only 60s: remaining, not full
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{Restart: fault.FullRuntime}))
	wantViolation(t, rep, "attempt 2 ran 60 s, checkpoint replay predicts 100")
}

func TestFaultRemainingRuntimeBounds(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	ok := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 100, 2, 3), // 40 + 60 = 100 = exact
	}
	rep := Check(w, ok, fopts(tr, fault.RetryPolicy{Restart: fault.RemainingRuntime}))
	if !rep.OK() {
		t.Fatalf("exact remaining-runtime retry flagged: %v", rep.Violations)
	}
	bad := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 130, 2, 3), // 90 s where 60 remain
	}
	rep = Check(w, bad, fopts(tr, fault.RetryPolicy{Restart: fault.RemainingRuntime}))
	wantViolation(t, rep, "attempt 2 ran 90 s, checkpoint replay predicts 60")
}

func TestFaultRemainingRuntimeIsExact(t *testing.T) {
	// The kill at t=40 is a free checkpoint: the retry owes exactly the 60
	// unfinished seconds. One second more is a violation, not clamp slack.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 101, 2, 3),
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{Restart: fault.RemainingRuntime}))
	wantViolation(t, rep, "attempt 2 ran 61 s, checkpoint replay predicts 60")
}

// --- checkpoint chain rules -----------------------------------------------

// copts is fopts plus a periodic checkpoint policy with interval ivl and
// cost c, engaging the chain-replay rule instead of the restart binary.
func copts(tr *fault.Trace, p fault.RetryPolicy, ivl, c int64) Options {
	o := fopts(tr, p)
	o.Checkpoint = fault.CheckpointPeriodic
	o.CheckpointInterval = ivl
	o.CheckpointCost = c
	return o
}

func TestCheckpointCleanChainOK(t *testing.T) {
	// Dur 100, I=30, C=5: a completed attempt takes (100-1)/30 = 3
	// checkpoints and occupies exactly 115 s.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(500, fault.Fail, 9), fev(501, fault.Repair, 9))
	rep := Check(w, []trace.Span{span(1, 64, 0, 115, 0, 1)}, copts(tr, fault.RetryPolicy{}, 30, 5))
	if !rep.OK() {
		t.Fatalf("lawful checkpointed completion flagged: %v", rep.Violations)
	}
}

func TestCheckpointDetectsMissingCharges(t *testing.T) {
	// The span runs the bare runtime without the 3 checkpoint charges.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(500, fault.Fail, 9), fev(501, fault.Repair, 9))
	rep := Check(w, []trace.Span{span(1, 64, 0, 100, 0, 1)}, copts(tr, fault.RetryPolicy{}, 30, 5))
	wantViolation(t, rep, "checkpoint replay predicts 115")
}

func TestCheckpointRestartFromCheckpointOK(t *testing.T) {
	// Killed at elapsed 40 with I=30, C=5: one checkpoint was taken at
	// elapsed 30, so the retry restarts with D' = (100+5-30)+5 = 80 and
	// completes after 80 + 2·5 = 90 s (two checkpoints on the retry).
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 130, 2, 3),
	}
	rep := Check(w, spans, copts(tr, fault.RetryPolicy{}, 30, 5))
	if !rep.OK() {
		t.Fatalf("lawful restart-from-checkpoint flagged: %v", rep.Violations)
	}
}

func TestCheckpointDetectsFullRestartAfterCheckpoint(t *testing.T) {
	// Same kill as above, but the retry reruns the full checkpointed
	// runtime (115 s) as if no checkpoint existed: lost work invented.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(40, fault.Fail, 0), fev(200, fault.Repair, 0))
	spans := []trace.Span{
		killedSpan(1, 64, 0, 40, 0, 1),
		span(1, 64, 40, 155, 2, 3),
	}
	rep := Check(w, spans, copts(tr, fault.RetryPolicy{}, 30, 5))
	wantViolation(t, rep, "checkpoint replay predicts 90")
}

func TestCheckpointDegeneratesToFullRestart(t *testing.T) {
	// Killed at elapsed 20, before the first checkpoint at 30: the retry
	// must rerun the full 115 s chain. A shorter "remaining-style" retry
	// is a violation.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(20, fault.Fail, 0), fev(200, fault.Repair, 0))
	ok := []trace.Span{
		killedSpan(1, 64, 0, 20, 0, 1),
		span(1, 64, 20, 135, 2, 3),
	}
	rep := Check(w, ok, copts(tr, fault.RetryPolicy{}, 30, 5))
	if !rep.OK() {
		t.Fatalf("full restart before the first checkpoint flagged: %v", rep.Violations)
	}
	bad := []trace.Span{
		killedSpan(1, 64, 0, 20, 0, 1),
		span(1, 64, 20, 115, 2, 3), // 95 s: resumed progress it never saved
	}
	rep = Check(w, bad, copts(tr, fault.RetryPolicy{}, 30, 5))
	wantViolation(t, rep, "checkpoint replay predicts 115")
}

func TestCheckpointDetectsOverrunBeforeKill(t *testing.T) {
	// An attempt may never outlive its checkpointed effective runtime,
	// kill or not.
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(120, fault.Fail, 0), fev(200, fault.Repair, 0))
	rep := Check(w, []trace.Span{killedSpan(1, 64, 0, 120, 0, 1)}, copts(tr, fault.RetryPolicy{}, 30, 5))
	wantViolation(t, rep, "above its checkpointed effective runtime 115")
}

func TestCheckpointDedicatedNeverCheckpoints(t *testing.T) {
	// Dedicated jobs are exempt from checkpointing: a span carrying the
	// batch checkpoint charges overstays its runtime.
	d := &job.Job{ID: 1, Size: 64, Dur: 100, Arrival: 0, ReqStart: 0, Class: job.Dedicated}
	w := wlOf(d)
	tr := ftr(fev(500, fault.Fail, 9), fev(501, fault.Repair, 9))
	sp := span(1, 64, 0, 115, 0, 1)
	sp.Class = job.Dedicated
	sp.ReqStart = 0
	rep := Check(w, []trace.Span{sp}, copts(tr, fault.RetryPolicy{}, 30, 5))
	wantViolation(t, rep, "checkpoint replay predicts 100 (0 checkpoints")
}

func TestCheckpointDalySpanInterval(t *testing.T) {
	// Daly intervals are per job: a 64-proc job spans 2 of the 32-proc
	// groups, so it checkpoints at sqrt(2·(450/2)·8) = 60, not the base
	// single-group interval sqrt(2·450·8) = 84. With Dur 200 and C=8 the
	// completed attempt takes (200-1)/60 = 3 checkpoints and occupies
	// 224 s; a span replayed at the base interval (2 checkpoints, 216 s)
	// must be flagged.
	w := wlOf(bj(1, 64, 200, 0))
	tr := ftr(fev(900, fault.Fail, 9), fev(901, fault.Repair, 9))
	o := fopts(tr, fault.RetryPolicy{})
	o.Checkpoint = fault.CheckpointDaly
	o.CheckpointInterval = fault.DalyInterval(450, 8)
	o.CheckpointCost = 8
	o.MTBF = 450
	if o.CheckpointInterval != 84 {
		t.Fatalf("base daly interval = %d, want 84", o.CheckpointInterval)
	}
	rep := Check(w, []trace.Span{span(1, 64, 0, 224, 0, 1)}, o)
	if !rep.OK() {
		t.Fatalf("lawful span-interval daly completion flagged: %v", rep.Violations)
	}
	rep = Check(w, []trace.Span{span(1, 64, 0, 216, 0, 1)}, o)
	wantViolation(t, rep, "checkpoint replay predicts 224")
}

func TestCheckpointOnResizeReplayCharges(t *testing.T) {
	// Under the on-resize policy every resize charges the checkpoint cost
	// on top of the resize overhead: shrinking 64→32 at t=50 with 50 s of
	// work left rescales to 100 s, plus cost 5 → end at 155. Both the
	// uncharged end (150) and the charged one must be told apart.
	mk := func(end int64) trace.Span {
		sp := span(1, 64, 0, end, 0, 1)
		sp.Planned = 100
		sp.MinProcs = 32
		sp.MaxProcs = 64
		sp.Resizes = []trace.Resize{{Time: 50, From: 64, NewSize: 32, Auto: true}}
		return sp
	}
	o := opts()
	o.Malleable = true
	o.Checkpoint = fault.CheckpointOnResize
	o.CheckpointCost = 5
	w := wlOf(bj(1, 64, 100, 0))
	rep := Check(w, []trace.Span{mk(155)}, o)
	if !rep.OK() {
		t.Fatalf("charged on-resize span flagged: %v", rep.Violations)
	}
	rep = Check(w, []trace.Span{mk(150)}, o)
	wantViolation(t, rep, "work-conserving replay of its 1 resizes predicts t=155")
}

func TestFaultDetectsPlacementAfterCompletion(t *testing.T) {
	w := wlOf(bj(1, 64, 100, 0))
	tr := ftr(fev(500, fault.Fail, 9), fev(501, fault.Repair, 9))
	spans := []trace.Span{
		span(1, 64, 0, 100, 0, 1),
		span(1, 64, 200, 300, 0, 1),
	}
	rep := Check(w, spans, fopts(tr, fault.RetryPolicy{}))
	wantViolation(t, rep, "placed again after completing")
}

// Package audit independently verifies a recorded schedule against its
// workload: an oracle separate from the engine's own bookkeeping. Given the
// placement spans captured by trace.Recorder, it re-checks, instant by
// instant, that the schedule was *feasible* and *lawful*:
//
//   - no instant overcommits the machine;
//   - every job starts at or after its arrival;
//   - dedicated jobs never start before their requested start time;
//   - every submitted job was placed exactly once and actually ran;
//   - without elastic commands, each job occupies the machine for exactly
//     its effective runtime (actual capped by the estimate);
//   - allocations respect the machine's node-group quantum and no two jobs
//     share a node group at the same instant.
//
// Under fault injection (Options.Faults) the oracle additionally verifies
// the failure semantics: no placement overlaps a window in which one of its
// node groups was down, kills and resubmissions follow the retry policy
// (drop means no further spans, retry budgets and backoffs are respected),
// and every attempt runs exactly what a replay of its restart points
// predicts. Trace-level inconsistencies (repairs with no preceding
// failure, double failures) are folded into the report.
//
// Under malleability (Options.Malleable) resized spans are additionally
// held to the resize laws: size changes chain from the dispatch size on the
// allocation grid, system-initiated resizes respect the job's processor
// bounds and never touch dedicated jobs, and a forward replay of each
// span's resizes must reproduce its recorded end exactly — remaining work
// is conserved through every reshape.
//
// Integration tests run every scheduling policy through this auditor, so a
// bookkeeping bug in the engine and a matching bug in the metrics cannot
// mask each other.
package audit

import (
	"fmt"
	"sort"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/trace"
)

// Report is the outcome of an audit. Violations is empty for a lawful
// schedule.
type Report struct {
	Violations []string
	// PeakBusy is the maximum processors in use at any instant.
	PeakBusy int
	// Spans is the number of placements audited.
	Spans int
}

// OK reports whether the audit found no violations.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Error renders the report as an error (nil when OK).
func (r Report) Error() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("audit: %d violations, first: %s", len(r.Violations), r.Violations[0])
}

// Options tune the audit.
type Options struct {
	// M and Unit give the machine geometry.
	M, Unit int
	// Elastic relaxes the exact-runtime check: ET/RT commands legitimately
	// change durations mid-run.
	Elastic bool
	// SizeElastic additionally skips the capacity/group sweep and size
	// checks: EP/RP commands change allocations mid-run, so the dispatch
	// snapshot in a span no longer describes the whole lifetime.
	SizeElastic bool
	// Malleable enables the resize lawfulness rules for runs with
	// scheduler-initiated (Auto) resizes: every resize must chain from the
	// dispatch size, stay on the allocation grid, respect the job's
	// processor bounds, never touch a dedicated job, and — because the
	// engine rescales work-conservingly — a forward replay of the span's
	// resizes from its dispatch-time runtime must land exactly on its
	// recorded end. Spans that were resized are exempted from the
	// dispatch-snapshot checks, like SizeElastic, but untouched spans keep
	// the full rigid rules.
	Malleable bool
	// ResizeOverhead is the per-resize reconfiguration penalty the run was
	// configured with; the work-conservation replay charges it after every
	// rescale. Meaningful only with Malleable.
	ResizeOverhead int64
	// Faults is the fault trace the run executed under. When non-nil the
	// fault-aware rules apply: jobs may occupy the machine once per
	// attempt (killed spans followed by resubmissions), and every span is
	// checked against the trace's down windows and the retry policy.
	Faults *fault.Trace
	// Retry is the engine's retry policy; meaningful only with Faults.
	Retry fault.RetryPolicy
	// Checkpoint is the engine's checkpoint policy; meaningful only with
	// Faults. Every attempt's span must match a forward replay of its
	// checkpoint schedule (interval charges included), and each kill must
	// hand the next attempt exactly the engine's residual from the
	// victim's restart point (job.Job.CkptAt). Under CheckpointNone,
	// Retry.Restart decides that point.
	Checkpoint fault.CheckpointPolicy
	// CheckpointInterval is the *resolved* base wall interval between a
	// job's checkpoints — the configured periodic interval, or daly's
	// derived single-group sqrt(2·MTBF·C) — and 0 for the none and
	// on-resize policies, which run no timer (engine.FaultConfig's
	// ResolvedCheckpointInterval).
	CheckpointInterval int64
	// CheckpointCost is the engine's per-checkpoint (and per-restart)
	// charge; 0 under CheckpointNone.
	CheckpointCost int64
	// MTBF is the per-group mean time between failures the daly policy
	// derives from: the chain replay recomputes each job's own interval
	// sqrt(2·(MTBF/g)·C) for its span of g node groups, exactly as the
	// engine does. Meaningful only with Checkpoint == CheckpointDaly.
	MTBF float64
}

// Check audits the spans of one run against the workload it came from.
func Check(w *cwf.Workload, spans []trace.Span, opt Options) Report {
	rep := Report{Spans: len(spans)}
	add := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	if opt.M <= 0 || opt.Unit <= 0 || opt.M%opt.Unit != 0 {
		add("bad machine geometry M=%d unit=%d", opt.M, opt.Unit)
		return rep
	}

	byID := make(map[int]*job.Job, len(w.Jobs))
	for _, j := range w.Jobs {
		byID[j.ID] = j
	}

	// A resize in any attempt rescales the job object's requirement and
	// size, so the rigid per-span checks must yield for every span of that
	// job — including retry attempts dispatched at the shrunk size, whose
	// own Resizes list is empty.
	resizedJob := make(map[int]bool)
	if opt.Malleable {
		for _, sp := range spans {
			if len(sp.Resizes) > 0 {
				resizedJob[sp.JobID] = true
			}
		}
	}

	// Per-span lawfulness. Under fault injection a job may legitimately
	// appear once per attempt; the structural rules for repeats live in
	// checkFaults. Without it, a second span is a violation outright.
	seen := make(map[int]bool, len(spans))
	for _, sp := range spans {
		j, ok := byID[sp.JobID]
		if !ok {
			add("job %d placed but never submitted", sp.JobID)
			continue
		}
		if seen[sp.JobID] && opt.Faults == nil {
			add("job %d placed twice", sp.JobID)
			continue
		}
		seen[sp.JobID] = true
		if sp.Start < j.Arrival {
			add("job %d started at %d before arrival %d", sp.JobID, sp.Start, j.Arrival)
		}
		if j.Class == job.Dedicated && sp.Start < j.ReqStart {
			add("dedicated job %d started at %d before requested start %d", sp.JobID, sp.Start, j.ReqStart)
		}
		if sp.End <= sp.Start {
			add("job %d has empty span [%d, %d)", sp.JobID, sp.Start, sp.End)
		}
		// A resized job's dispatch snapshots no longer match the post-run
		// job object, so the rigid runtime/size checks yield to the resize
		// replay below.
		resized := resizedJob[sp.JobID]
		if !opt.Elastic && !resized {
			if opt.Faults == nil {
				if got, want := sp.End-sp.Start, j.EffectiveRuntime(); got != want {
					add("job %d ran %d s, expected %d", sp.JobID, got, want)
				}
			}
			if sp.Size < j.Size || sp.Size%opt.Unit != 0 {
				add("job %d placed on %d procs, submitted %d (unit %d)", sp.JobID, sp.Size, j.Size, opt.Unit)
			}
		}
		checkResizes(sp, opt, add)
		if !opt.SizeElastic && len(sp.Groups)*opt.Unit != sp.Size {
			add("job %d holds %d groups for size %d (unit %d)", sp.JobID, len(sp.Groups), sp.Size, opt.Unit)
		}
		for _, g := range sp.Groups {
			if g < 0 || g >= opt.M/opt.Unit {
				add("job %d holds out-of-range group %d", sp.JobID, g)
			}
		}
	}
	for id := range byID {
		if !seen[id] {
			add("job %d submitted but never placed", id)
		}
	}

	if opt.Faults != nil {
		checkFaults(byID, spans, opt, add)
	}

	anyResized := false
	for _, sp := range spans {
		if len(sp.Resizes) > 0 {
			anyResized = true
			break
		}
	}
	if opt.SizeElastic || (opt.Malleable && anyResized) {
		return rep
	}

	// Capacity and group-exclusivity over time: sweep start/end edges.
	type edge struct {
		t     int64
		start bool
		span  *trace.Span
	}
	edges := make([]edge, 0, 2*len(spans))
	for i := range spans {
		edges = append(edges, edge{spans[i].Start, true, &spans[i]}, edge{spans[i].End, false, &spans[i]})
	}
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].t != edges[k].t {
			return edges[i].t < edges[k].t
		}
		// Process releases before starts at the same instant: a job may
		// start exactly when another ends.
		return !edges[i].start && edges[k].start
	})
	busy := 0
	groupOwner := make(map[int]int) // group -> jobID
	for _, e := range edges {
		if e.start {
			busy += len(e.span.Groups) * opt.Unit
			if busy > opt.M {
				add("machine overcommitted at t=%d: %d/%d busy", e.t, busy, opt.M)
			}
			if busy > rep.PeakBusy {
				rep.PeakBusy = busy
			}
			for _, g := range e.span.Groups {
				if owner, taken := groupOwner[g]; taken {
					add("group %d double-booked at t=%d by jobs %d and %d", g, e.t, owner, e.span.JobID)
				}
				groupOwner[g] = e.span.JobID
			}
		} else {
			busy -= len(e.span.Groups) * opt.Unit
			for _, g := range e.span.Groups {
				if groupOwner[g] == e.span.JobID {
					delete(groupOwner, g)
				}
			}
		}
	}
	if busy != 0 {
		add("schedule ends with %d processors still marked busy", busy)
	}
	return rep
}

// checkResizes holds a span's recorded size changes to the resize laws:
// sizes chain from the dispatch size, every new size is a positive on-grid
// allocation within the machine, system-initiated (Auto) resizes only touch
// batch jobs with malleable bounds and stay inside them, and client resizes
// only appear in size-elastic runs. For malleable runs it then replays the
// resizes forward from the span's dispatch-time runtime with the engine's
// own work-conserving arithmetic (RescaleRemaining plus the per-resize
// overhead) and requires the replay to land exactly on the recorded end:
// remaining work may never be lost or invented by a resize.
func checkResizes(sp trace.Span, opt Options, add func(string, ...any)) {
	if len(sp.Resizes) == 0 {
		return
	}
	cur := sp.Size
	for _, rz := range sp.Resizes {
		if rz.Time < sp.Start || rz.Time > sp.End {
			add("job %d resized at t=%d outside its span [%d, %d)", sp.JobID, rz.Time, sp.Start, sp.End)
		}
		if rz.From != cur {
			add("job %d resize at t=%d claims %d procs held, chain says %d", sp.JobID, rz.Time, rz.From, cur)
		}
		if rz.NewSize <= 0 || rz.NewSize%opt.Unit != 0 || rz.NewSize > opt.M {
			add("job %d resized to unlawful size %d at t=%d (unit %d, M %d)",
				sp.JobID, rz.NewSize, rz.Time, opt.Unit, opt.M)
		} else if rz.NewSize == rz.From {
			add("job %d no-op resize recorded at t=%d (size %d)", sp.JobID, rz.Time, rz.NewSize)
		}
		if rz.Auto {
			switch {
			case !opt.Malleable:
				add("job %d system-resized at t=%d in a non-malleable run", sp.JobID, rz.Time)
			case sp.Class == job.Dedicated:
				add("dedicated job %d system-resized at t=%d", sp.JobID, rz.Time)
			case sp.MaxProcs <= 0:
				add("job %d system-resized at t=%d without malleable bounds", sp.JobID, rz.Time)
			case rz.NewSize < sp.MinProcs || rz.NewSize > sp.MaxProcs:
				add("job %d system-resized to %d at t=%d outside its bounds [%d, %d]",
					sp.JobID, rz.NewSize, rz.Time, sp.MinProcs, sp.MaxProcs)
			}
		} else if !opt.SizeElastic {
			add("job %d client-resized at t=%d in a run without size commands", sp.JobID, rz.Time)
		}
		cur = rz.NewSize
	}

	// Work-conservation replay. Killed spans end at the failure instant, not
	// at a rescaled completion; ET/RT commands (Elastic) mutate the runtime
	// outside the resize pipeline; both make the dispatch-time requirement
	// an unusable anchor. Spans recorded without a dispatch runtime (hand-
	// built fixtures) are skipped rather than guessed at.
	if !opt.Malleable || opt.Elastic || sp.Killed || sp.Planned <= 0 {
		return
	}
	var ckptC int64
	switch {
	case opt.Checkpoint == fault.CheckpointOnResize && sp.Class != job.Dedicated:
		// Every resize doubles as a checkpoint: its cost rides on the
		// rescaled remainder exactly like the resize overhead.
		ckptC = opt.CheckpointCost
	case opt.Checkpoint != fault.CheckpointNone && opt.CheckpointInterval > 0 && sp.Class != job.Dedicated:
		// Interval checkpoints charge their cost at wall-clock instants
		// that interleave with the resizes in an order the span record
		// does not capture; the checkpoint chain replay audits the
		// unresized attempts instead.
		return
	}
	rem, t, size := sp.Planned, sp.Start, sp.Size
	for _, rz := range sp.Resizes {
		seg := rz.Time - t
		if seg < 0 || seg > rem {
			add("job %d resized at t=%d, after its remaining work ran out at t=%d", sp.JobID, rz.Time, t+rem)
			return
		}
		if rem -= seg; rem > 0 {
			rem = job.RescaleRemaining(rem, size, rz.NewSize) + opt.ResizeOverhead + ckptC
		}
		t, size = rz.Time, rz.NewSize
	}
	if want := t + rem; sp.End != want {
		add("job %d ended at t=%d, work-conserving replay of its %d resizes predicts t=%d",
			sp.JobID, sp.End, len(sp.Resizes), want)
	}
}

// checkFaults verifies the failure semantics of a fault-injected run:
// trace sanity, down-window exclusion, and the retry policy's structural
// rules over each job's sequence of attempts.
func checkFaults(byID map[int]*job.Job, spans []trace.Span, opt Options, add func(string, ...any)) {
	groups := opt.M / opt.Unit
	for _, issue := range opt.Faults.Lint(groups) {
		add("fault trace: %s", issue)
	}

	// Horizon for down windows: past every span and every trace event, so
	// a failure never repaired stays down through the whole schedule.
	var horizon int64
	for _, sp := range spans {
		if sp.End > horizon {
			horizon = sp.End
		}
	}
	for _, e := range opt.Faults.Events {
		if e.Time >= horizon {
			horizon = e.Time + 1
		}
	}
	windows := opt.Faults.DownWindows(groups, horizon)

	// No span may overlap a down window of a group it holds. Killed spans
	// end exactly at the failure instant, so the half-open intervals do
	// not intersect for a lawful kill. Resized spans are exempt — whether
	// by EP/RP commands or a malleable fault-shrink that dropped the very
	// groups that failed — because their dispatch-time group set no longer
	// describes the whole lifetime.
	attempts := make(map[int][]trace.Span, len(byID))
	for _, sp := range spans {
		attempts[sp.JobID] = append(attempts[sp.JobID], sp)
		if (opt.SizeElastic || opt.Malleable) && len(sp.Resizes) > 0 {
			continue
		}
		for _, g := range sp.Groups {
			if g < 0 || g >= groups {
				continue
			}
			for _, w := range windows[g] {
				if sp.Start < w[1] && w[0] < sp.End {
					add("job %d occupies group %d which is down [%d, %d) during its span [%d, %d)",
						sp.JobID, g, w[0], w[1], sp.Start, sp.End)
				}
			}
		}
	}

	for id, atts := range attempts {
		j := byID[id]
		if j == nil {
			continue // already reported as never submitted
		}
		// Recorder spans come sorted by start; attempts of one job never
		// overlap, so this is also attempt order.
		for i, sp := range atts {
			last := i == len(atts)-1
			if !sp.Killed && !last {
				add("job %d placed again after completing at t=%d", id, sp.End)
			}
			if sp.Killed && !last {
				// A resubmission exists: it must be lawful for the policy
				// and respect the backoff.
				switch {
				case j.Class == job.Dedicated:
					add("dedicated job %d resubmitted after its kill at t=%d", id, sp.End)
				case opt.Retry.Mode == fault.Drop:
					add("job %d resubmitted after its kill at t=%d under a drop policy", id, sp.End)
				case opt.Retry.MaxRetries > 0 && i >= opt.Retry.MaxRetries:
					add("job %d resubmitted %d times, retry limit %d", id, i+1, opt.Retry.MaxRetries)
				}
				if next := atts[i+1]; next.Start < sp.End+opt.Retry.Backoff {
					add("job %d restarted at %d before backoff %d from its kill at %d",
						id, next.Start, opt.Retry.Backoff, sp.End)
				}
			}
		}
		if opt.Elastic {
			continue
		}
		if opt.Malleable {
			// A resize rescales per-processor runtime, so wall-clock totals
			// no longer add up against the submitted requirement; the
			// work-conservation replay audits those spans instead.
			rescaled := false
			for _, sp := range atts {
				if len(sp.Resizes) > 0 {
					rescaled = true
					break
				}
			}
			if rescaled {
				continue
			}
		}
		checkCheckpointChain(id, j, atts, opt, add)
	}
}

// checkCheckpointChain replays one job's attempts under the engine's
// restart arithmetic and holds every recorded span to the replay. Every
// kill resumes the next attempt from the victim's restart point (see
// job.Job.CkptAt); this is the only per-attempt runtime rule.
//
// With a chaining interval I > 0 and cost C, an attempt entering with
// estimate D and actual A (effective eff) checkpoints at elapsed
// n·I + (n−1)·C; each checkpoint pushes completion by C. Closed forms
// (derived from the engine's deterministic same-instant ordering — a
// completion landing exactly on a checkpoint instant wins, a kill landing
// on one cancels it):
//
//   - a completed attempt takes k' = (eff−1)/I checkpoints and occupies
//     the machine for exactly eff + k'·C;
//   - an attempt killed after elapsed e took k = (e+C−1)/(I+C)
//     checkpoints, and e may not exceed the completed form;
//   - the kill hands the next attempt D' = max(D + k·C − off, 1) + r and
//     (when A > 0) A' = max(eff + k·C − off, 1) + r, where off is the last
//     checkpoint's elapsed offset k·I + (k−1)·C and r = C — both zero when
//     no checkpoint was taken, which degenerates to a full restart.
//
// Without a policy there is no timer (I = 0) and RemainingRuntime is a
// free checkpoint at the kill instant: off = e, r = 0. The on-resize
// policy has no timer either: its checkpoints ride on resizes, and resized
// jobs are already exempt from runtime accounting, so every audited
// attempt here restarts in full with no charges. Dedicated jobs never
// checkpoint regardless of policy.
func checkCheckpointChain(id int, j *job.Job, atts []trace.Span, opt Options, add func(string, ...any)) {
	I, C := opt.CheckpointInterval, opt.CheckpointCost
	if opt.Checkpoint == fault.CheckpointDaly && opt.Unit > 0 {
		// Daly intervals are per job: a job spanning g groups experiences
		// MTBF/g. Audited attempts are never resized (resized spans are
		// exempted above), so the submitted size fixes the span.
		if g := (j.Size + opt.Unit - 1) / opt.Unit; g > 1 {
			I = fault.DalyInterval(opt.MTBF/float64(g), C)
		}
	}
	if j.Class == job.Dedicated {
		I = 0
	}
	killInstant := opt.Checkpoint == fault.CheckpointNone && opt.Retry.Restart == fault.RemainingRuntime
	D, A := j.Dur, j.Actual
	for i, sp := range atts {
		eff := D
		if A > 0 && A < D {
			eff = A
		}
		var kc int64 // checkpoints a completed attempt would take
		if I > 0 {
			kc = (eff - 1) / I
		}
		e := sp.End - sp.Start
		if !sp.Killed {
			if want := eff + kc*C; e != want {
				add("job %d attempt %d ran %d s, checkpoint replay predicts %d (%d checkpoints of cost %d on effective runtime %d)",
					id, i+1, e, want, kc, C, eff)
			}
			continue // spans after a completion are flagged structurally above
		}
		if e > eff+kc*C {
			add("job %d attempt %d ran %d s before its kill, above its checkpointed effective runtime %d",
				id, i+1, e, eff+kc*C)
		}
		var k int64 // checkpoints actually taken before the kill
		if I > 0 && e > 0 {
			k = (e + C - 1) / (I + C)
		}
		var off, r int64
		switch {
		case k > 0:
			off = k*I + (k-1)*C
			r = C
		case killInstant:
			off = e
		}
		if D = D + k*C - off; D < 1 {
			D = 1
		}
		D += r
		if A > 0 {
			if A = eff + k*C - off; A < 1 {
				A = 1
			}
			A += r
		}
	}
}

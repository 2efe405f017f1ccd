package dispatch

import (
	"fmt"
	"sort"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
)

// This file is the runner's barrier case: the deterministic
// epoch-synchronization protocol behind Config.Epoch/Steal/Affinity and the
// feedback routing policy. Sessions start empty (buildSessions arms their
// faults) and take their work by Inject, one release window at a time.
//
// Protocol. Virtual time is cut into epochs of Config.Epoch seconds. Per
// round k with barrier T = (k+1)·Epoch:
//
//  1. Release: jobs with arrivals in (T−Epoch, T] are routed (the
//     precomputed static split with its affinity pins, else the pin or the
//     feedback router reading the last barrier's digests) and injected into
//     their cluster; commands in the window follow their job's current
//     owner.
//  2. Step: every cluster session advances to the barrier (RunUntil) on the
//     worker pool. Sessions never interact while running.
//  3. Exchange: at the barrier each cluster publishes a Digest, and the
//     steal pass — plain single-threaded code over the merged digests, in
//     deterministic order — moves queued jobs from backlogged clusters to
//     idle ones (Withdraw/AbsorbAt, ownership updated so later commands
//     follow).
//
// Determinism argument: releases are a pure function of the workload prefix
// and the previous barrier's digests; digests are a pure function of each
// cluster's (single-goroutine deterministic) session state at the barrier;
// the exchange runs after every session reached the barrier, on one
// goroutine, scanning clusters in a fixed order. Worker count only changes
// which sessions run concurrently between barriers, never what any of them
// observes — so the result is byte-identical for any worker count, the same
// bar the static policies meet.

// horizons returns each cluster's fault-sampling horizon, the span Load
// would use: the cluster's own routed span under a static split, the global
// span under feedback routing (homes unknown up front).
func (e *runner) horizons(w *cwf.Workload) []int64 {
	horizon := make([]int64, e.cfg.Clusters)
	for _, j := range w.Jobs {
		end := j.Arrival + j.Dur
		if e.dynamic == nil {
			if c := e.owner[j.ID]; end > horizon[c] {
				horizon[c] = end
			}
			continue
		}
		for c := range horizon {
			if end > horizon[c] {
				horizon[c] = end
			}
		}
	}
	return horizon
}

// loop drives the release/step/exchange rounds to completion.
func (e *runner) loop(w *cwf.Workload) error {
	// Stable arrival/issue orders: ties keep workload (submission) order,
	// matching the event-insertion order of a Load.
	jobOrder := make([]int, len(w.Jobs))
	for i := range jobOrder {
		jobOrder[i] = i
	}
	sort.SliceStable(jobOrder, func(a, b int) bool {
		return w.Jobs[jobOrder[a]].Arrival < w.Jobs[jobOrder[b]].Arrival
	})
	cmdOrder := make([]int, len(w.Commands))
	for i := range cmdOrder {
		cmdOrder[i] = i
	}
	sort.SliceStable(cmdOrder, func(a, b int) bool {
		return w.Commands[cmdOrder[a]].Issue < w.Commands[cmdOrder[b]].Issue
	})

	ji, ci := 0, 0
	var t int64
	for {
		released := ji == len(jobOrder) && ci == len(cmdOrder)
		if released {
			if e.allDone() {
				return nil
			}
			if !e.cfg.Steal {
				// Nothing left to route and no exchange step to run: the
				// sessions are independent now, drain them in parallel.
				return e.parallel((*runner).drainSession)
			}
		} else if e.allDone() && e.allIdle() {
			// Every cluster is drained and empty: fast-forward over the
			// dead epochs to the one containing the next release. The
			// digests of the skipped barriers are all-idle, so neither the
			// exchange step nor the feedback router loses information.
			next := int64(1<<63 - 1)
			if ji < len(jobOrder) {
				next = w.Jobs[jobOrder[ji]].Arrival
			}
			if ci < len(cmdOrder) && w.Commands[cmdOrder[ci]].Issue < next {
				next = w.Commands[cmdOrder[ci]].Issue
			}
			if skip := (next - 1) / e.cfg.Epoch * e.cfg.Epoch; skip > t {
				t = skip
			}
		}
		barrier := t + e.cfg.Epoch

		for ji < len(jobOrder) && w.Jobs[jobOrder[ji]].Arrival <= barrier {
			j := w.Jobs[jobOrder[ji]]
			c := e.routeRelease(j)
			if err := e.sessions[c].Inject(j); err != nil {
				return fmt.Errorf("dispatch: cluster %d: %w", c, err)
			}
			e.owner[j.ID] = c
			ji++
		}
		for ci < len(cmdOrder) && w.Commands[cmdOrder[ci]].Issue <= barrier {
			cmd := w.Commands[cmdOrder[ci]]
			ci++
			// Under a static split every job's owner is known up front, so a
			// command issued before its job's arrival reaches the job's home
			// exactly as a Loaded part carries it, and counts ignored-unknown
			// there.
			c, ok := e.owner[cmd.JobID]
			if !ok {
				if e.dynamic == nil {
					// A command for a job no cluster owns cannot exist in a
					// validated workload; drop it as route does.
					continue
				}
				// Feedback routing: the job is released in a later window, so
				// the command fires before its arrival and is ignored-unknown
				// wherever it lands. Cluster 0 keeps the accounting
				// deterministic.
				c = 0
			}
			if err := e.sessions[c].InjectCommand(cmd); err != nil {
				return fmt.Errorf("dispatch: cluster %d: %w", c, err)
			}
		}

		// Step: only sessions with an event inside the window can change
		// state (RunUntil never advances past the last event), so dispatch
		// exactly those — under light load most barriers touch one or two
		// clusters, and handing an idle session to the pool costs more than
		// the no-op RunUntil it would run.
		active := e.active[:0]
		for c, s := range e.sessions {
			if next, ok := s.NextEventTime(); ok && next <= barrier {
				active = append(active, c)
			}
		}
		e.active = active
		e.barrier = barrier
		if err := e.parallelOver(active, (*runner).stepSession); err != nil {
			return err
		}
		// Exchange: only when something consumes the digests — a static
		// split with stealing off barriers for transparency alone, and
		// digesting a deep backlog every epoch is the protocol's single
		// biggest per-barrier cost.
		if e.cfg.Steal || e.dynamic != nil {
			for c, s := range e.sessions {
				e.digests[c] = digestSession(c, s, barrier)
			}
			if e.cfg.Steal {
				if err := e.stealPass(barrier); err != nil {
					return err
				}
			}
			if e.dynamic != nil {
				e.dynamic.ObserveDigests(e.digests)
			}
		}
		t = barrier
		e.epochs++
	}
}

// routeRelease decides the cluster of one released job: its home in the
// precomputed static split (pins included), else the affinity pin or the
// feedback router.
func (e *runner) routeRelease(j *job.Job) int {
	if e.dynamic == nil {
		return e.owner[j.ID]
	}
	if pin := PinnedCluster(j.ID, e.cfg.Affinity, e.cfg.Clusters); pin >= 0 {
		e.dynamic.Assigned(j, pin)
		return pin
	}
	c := e.dynamic.Route(j)
	if c < 0 || c >= e.cfg.Clusters {
		panic(fmt.Sprintf("dispatch: router %s sent job %d to cluster %d of %d",
			e.dynamic.Name(), j.ID, c, e.cfg.Clusters))
	}
	return c
}

// stepSession advances cluster c to the current barrier.
func (e *runner) stepSession(c int) error { return e.sessions[c].RunUntil(e.barrier) }

// stealPass is the exchange step: computed at the barrier from the merged
// digests, on one goroutine, in deterministic order. Idle clusters (empty
// queue, free capacity) pull queued jobs from the most loaded backlogged
// clusters, and every stolen job fits the receiver's remaining free
// capacity, so everything stolen starts at the barrier — a steal only ever
// converts waiting into running. Two classes move, in order:
//
//  1. Blocked heads: while the donor's queue head needs more processors
//     than the donor has free, it cannot start at home no matter what the
//     local scheduler does, and under a conservative policy it blocks the
//     whole queue behind it. Moving it to a cluster where it starts now is
//     the giant-collision repair, so no size or duration cap applies.
//  2. Short tail jobs, youngest first, never the (startable) head: these
//     drain idle capacity without queue-jumping the donor's head. Only
//     jobs occupying the receiver for at most stealDurCap epochs are
//     taken — parking a heavy-tailed runtime on an idle cluster would
//     block the wide arrivals routed there long after the backlog that
//     justified the steal has drained.
//
// Rigid jobs (failure victims entitled to the head) and jobs pinned to
// another cluster never move. Digest entries are updated as moves happen,
// so later decisions in the same pass see them.
func (e *runner) stealPass(barrier int64) error {
	receivers, donors := e.receivers[:0], e.donors[:0]
	for c, d := range e.digests {
		switch {
		case d.QueueDepth == 0 && d.FreeProcs > 0:
			receivers = append(receivers, c)
		case d.QueueDepth > 0:
			donors = append(donors, c)
		}
	}
	e.receivers, e.donors = receivers, donors
	if len(receivers) == 0 || len(donors) == 0 {
		return nil
	}
	// Least-loaded receivers pick first; heaviest donors give first. Ties
	// break on cluster index: everything about this order is deterministic.
	// Stable insertion sorts: the lists hold at most Clusters indices and
	// this runs every epoch, so the reflection cost of the sort package
	// would dominate the pass.
	e.sortByLoad(receivers, false)
	e.sortByLoad(donors, true)
	durCap := stealDurCap * e.cfg.Epoch
	for _, r := range receivers {
		freeLeft := e.digests[r].FreeProcs
		for _, dn := range donors {
			if freeLeft <= 0 {
				break
			}
			d := &e.digests[dn]
			if d.QueueDepth == 0 {
				continue
			}
			// Select read-only over the live queue, then apply: Withdraw
			// mutates the queue, and snapshotting a deep backlog every
			// barrier would cost more than the whole exchange. Selection
			// never depends on the moves it has already chosen beyond the
			// freeLeft budget, so the split is exact.
			q := e.sessions[dn].WaitingBatch()
			chosen := e.victims[:0]
			// Blocked heads: each move promotes the next job to head; it is
			// blocked by the same test against the donor's unchanged free
			// capacity.
			head := 0
			for head < len(q) && freeLeft > 0 {
				j := q[head]
				if j.Size <= d.FreeProcs {
					break // the head starts at home as soon as it is scheduled
				}
				if j.Rigid || j.Class != job.Batch || j.Size > freeLeft {
					break // an immovable blocked head keeps its queue behind it
				}
				if pin := PinnedCluster(j.ID, e.cfg.Affinity, e.cfg.Clusters); pin >= 0 && pin != r {
					break
				}
				chosen = append(chosen, j)
				freeLeft -= j.Size
				head++
			}
			// Short tails, youngest first, never the current head.
			for i := len(q) - 1; i > head && freeLeft > 0; i-- {
				j := q[i]
				if j.Rigid || j.Class != job.Batch || j.Size > freeLeft || j.Dur > durCap {
					continue
				}
				if pin := PinnedCluster(j.ID, e.cfg.Affinity, e.cfg.Clusters); pin >= 0 && pin != r {
					continue
				}
				chosen = append(chosen, j)
				freeLeft -= j.Size
			}
			e.victims = chosen
			for _, j := range chosen {
				if err := e.stealJob(j, dn, r, barrier); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// stealJob moves one queued job from cluster dn to cluster r at the barrier
// and keeps the ownership map and both digest entries in step, so later
// decisions in the same pass see the move. The caller maintains its own
// remaining-free-capacity budget.
func (e *runner) stealJob(j *job.Job, dn, r int, barrier int64) error {
	if err := e.sessions[dn].Withdraw(j); err != nil {
		return fmt.Errorf("dispatch: cluster %d: %w", dn, err)
	}
	if err := e.sessions[r].AbsorbAt(j, barrier); err != nil {
		return fmt.Errorf("dispatch: cluster %d: %w", r, err)
	}
	e.owner[j.ID] = r
	e.steals++
	wk := int64(j.Size) * j.Dur
	e.digests[dn].QueueDepth--
	e.digests[dn].BacklogProcSeconds -= wk
	e.digests[r].FreeProcs -= j.Size
	e.digests[r].RunningProcSeconds += wk
	return nil
}

// stealDurCap bounds, in epochs, how long a tail-stolen job may occupy the
// receiving cluster. Blocked heads are exempt (see stealPass).
const stealDurCap = 8

// sortByLoad stably orders cluster indices by digest load, ascending or
// descending; appended in index order, ties keep the lower index first.
func (e *runner) sortByLoad(list []int, desc bool) {
	for i := 1; i < len(list); i++ {
		c := list[i]
		l := e.digests[c].load()
		k := i - 1
		for k >= 0 {
			lk := e.digests[list[k]].load()
			if (desc && lk >= l) || (!desc && lk <= l) {
				break
			}
			list[k+1] = list[k]
			k--
		}
		list[k+1] = c
	}
}

// allDone reports whether every session has drained its event queue.
func (e *runner) allDone() bool {
	for _, s := range e.sessions {
		if !s.Done() {
			return false
		}
	}
	return true
}

// allIdle reports whether no session holds queued or running work.
func (e *runner) allIdle() bool {
	for _, s := range e.sessions {
		if s.Waiting() != 0 || s.Running() != 0 {
			return false
		}
	}
	return true
}

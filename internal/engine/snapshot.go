package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"elastisched/internal/cwf"
	"elastisched/internal/ecc"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/machine"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
)

// SnapshotVersion stamps the snapshot encoding. Decoders reject snapshots
// from a different version rather than guessing at field semantics.
// Version 2 added fault injection: fail/repair event kinds, the machine's
// group-health table, and the captured retry policy.
// Version 3 added malleability: the Malleable/ResizeOverhead feature
// flags, per-job processor bounds (inside Jobs), and the resize counters
// (inside Metrics).
// Version 4 added checkpointing: the ckpt event kind, the captured
// checkpoint policy knobs, per-job checkpoint progress (inside Jobs),
// and the checkpoint counters (inside Metrics).
const SnapshotVersion = 4

// Event kinds in a snapshot.
const (
	evArrive   = "arrive"   // a job's arrival is still pending
	evComplete = "complete" // a running job's completion
	evCommand  = "command"  // an Elastic Control Command issue
	evWake     = "wake"     // a bare scheduler wake (dedicated start time)
	evFail     = "fail"     // a pending node-group failure
	evRepair   = "repair"   // a pending node-group repair
	evCkpt     = "ckpt"     // a running job's next scheduled checkpoint
)

// EventSnap is one pending kernel event. Order within Snapshot.Events is
// dispatch order: restore re-schedules them in sequence, which reproduces
// the kernel's (time, seq) total order exactly.
type EventSnap struct {
	Kind string `json:"kind"`
	Time int64  `json:"time"`
	// Job indexes Snapshot.Jobs for arrive/complete events; -1 otherwise.
	Job int `json:"job"`
	// Cmd is the pending command for command events.
	Cmd *cwf.Command `json:"cmd,omitempty"`
	// Groups names the node groups of fail/repair events.
	Groups []int `json:"groups,omitempty"`
}

// Settings is the run configuration a snapshot records and a resume must
// honour: machine geometry, allocation mode, ECC processing, the
// runtime-elasticity flags, and the fault retry and checkpoint policy.
// settingsOf captures it from a Config, Config rebuilds a Config from it,
// and Restore rejects a snapshot whose Settings differ from its own
// config's.
type Settings struct {
	M            int  `json:"m"`
	Unit         int  `json:"unit"`
	Contiguous   bool `json:"contiguous,omitempty"`
	Migrate      bool `json:"migrate,omitempty"`
	ProcessECC   bool `json:"process_ecc,omitempty"`
	MaxECCPerJob int  `json:"max_ecc_per_job,omitempty"`
	// Retry is the fault retry policy of a fault-injected session; nil when
	// fault injection is off. Pending fail/repair events and the machine's
	// health table are meaningless without the fault subsystem, and future
	// kills must follow the same policy.
	Retry *fault.RetryPolicy `json:"retry,omitempty"`
	// Checkpoint knobs of a fault-injected session: the policy ("" for
	// none), its resolved base interval (the configured one for periodic,
	// sqrt(2·MTBF·C) for daly, 0 otherwise), and the cost. Pending ckpt
	// events and per-job checkpoint progress are tied to them. Pinning
	// daly's derived interval catches a config whose MTBF or cost would
	// re-derive different per-job intervals.
	Checkpoint         string `json:"checkpoint,omitempty"`
	CheckpointInterval int64  `json:"checkpoint_interval,omitempty"`
	CheckpointCost     int64  `json:"checkpoint_cost,omitempty"`
	// CheckpointMTBF is the per-group MTBF a daly session derives its
	// per-job intervals from, so a session rebuilt from the snapshot alone
	// (whose pinned fault events preclude sampling) keeps deriving them.
	// Zero for every other policy.
	CheckpointMTBF float64 `json:"checkpoint_mtbf,omitempty"`
	// Malleable and ResizeOverhead are the runtime-elasticity flags;
	// resumed resizes must keep their semantics.
	Malleable      bool  `json:"malleable,omitempty"`
	ResizeOverhead int64 `json:"resize_overhead,omitempty"`
}

// settingsOf captures cfg's Settings.
func settingsOf(cfg *Config) Settings {
	st := Settings{
		M:              cfg.M,
		Unit:           cfg.Unit,
		Contiguous:     cfg.Contiguous,
		Migrate:        cfg.Migrate,
		ProcessECC:     cfg.ProcessECC,
		MaxECCPerJob:   cfg.MaxECCPerJob,
		Malleable:      cfg.Malleable,
		ResizeOverhead: cfg.ResizeOverhead,
	}
	if fc := cfg.Faults; fc != nil {
		retry := fc.Retry
		st.Retry = &retry
		if fc.Checkpoint != fault.CheckpointNone {
			st.Checkpoint = fc.Checkpoint.String()
			st.CheckpointInterval = fc.ResolvedCheckpointInterval()
			st.CheckpointCost = fc.CheckpointCost
			if fc.Checkpoint == fault.CheckpointDaly {
				st.CheckpointMTBF = fc.MTBF
			}
		}
	}
	return st
}

// Config rebuilds the Config these Settings were captured from, without a
// scheduler: settingsOf of the result returns st. A fault-injected
// session's fail/repair events live in its snapshot, so the rebuilt fault
// config samples nothing: it carries an empty scripted trace, or, under
// daly, no trace and the captured MTBF to derive per-job intervals from.
// An unknown checkpoint policy becomes an out-of-range one that New
// rejects with fault.ErrUnknownCheckpointPolicy.
func (st Settings) Config() Config {
	cfg := Config{
		M:              st.M,
		Unit:           st.Unit,
		Contiguous:     st.Contiguous,
		Migrate:        st.Migrate,
		ProcessECC:     st.ProcessECC,
		MaxECCPerJob:   st.MaxECCPerJob,
		Malleable:      st.Malleable,
		ResizeOverhead: st.ResizeOverhead,
	}
	if st.Retry == nil {
		return cfg
	}
	policy, err := fault.ParseCheckpointPolicy(st.Checkpoint)
	if err != nil {
		policy = ^fault.CheckpointPolicy(0)
	}
	cfg.Faults = &FaultConfig{
		Trace:          &fault.Trace{},
		Retry:          *st.Retry,
		Checkpoint:     policy,
		CheckpointCost: st.CheckpointCost,
	}
	switch policy {
	case fault.CheckpointPeriodic:
		cfg.Faults.CheckpointInterval = st.CheckpointInterval
	case fault.CheckpointDaly:
		cfg.Faults.Trace = nil
		cfg.Faults.MTBF = st.CheckpointMTBF
	}
	return cfg
}

// Snapshot is the complete, self-contained state of a Session at an
// instant boundary. It is plain data: JSON-encodable via Encode /
// DecodeSnapshot, inspectable, and restorable into a fresh Session built
// with the same Settings (the scheduler may differ, enabling policy-swap
// resume — captured policy state then does not carry over).
type Snapshot struct {
	Version   int    `json:"version"`
	Scheduler string `json:"scheduler"`
	Settings

	Now        int64  `json:"now"`
	Dispatched uint64 `json:"dispatched"`
	Cycles     uint64 `json:"cycles"`

	DroppedECC  int `json:"dropped_ecc,omitempty"`
	FragRejects int `json:"frag_rejects,omitempty"`
	PeakWaste   int `json:"peak_waste,omitempty"`

	// Jobs holds every job the session owns, in admission order, with all
	// mutable fields (state, skip counts, ECC-adjusted requirements) as of
	// the capture instant. Queue membership and events reference jobs by
	// index into this slice.
	Jobs []job.Job `json:"jobs"`
	// Batch/Dedicated/Active list queue membership as Jobs indices in exact
	// queue order.
	Batch     []int `json:"batch,omitempty"`
	Dedicated []int `json:"dedicated,omitempty"`
	Active    []int `json:"active,omitempty"`

	Events []EventSnap `json:"events,omitempty"`

	Machine machine.Snapshot `json:"machine"`
	Metrics metrics.Snapshot `json:"metrics"`
	ECC     *ecc.Snapshot    `json:"ecc,omitempty"`

	// SchedState is the policy's opaque sched.Snapshotter encoding; empty
	// for stateless policies.
	SchedState []byte `json:"sched_state,omitempty"`
}

// Encode writes the snapshot as JSON.
func (sn *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(sn)
}

// Snapshot captures the session's complete state. It may be called at any
// instant boundary — which is every point a caller can observe, since
// Step, RunUntil and Run all return between instants. The session is not
// perturbed and continues running; the snapshot shares nothing with it.
func (s *Session) Snapshot() (*Snapshot, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	sn := &Snapshot{
		Version:     SnapshotVersion,
		Scheduler:   s.cfg.Scheduler.Name(),
		Settings:    settingsOf(&s.cfg),
		Now:         s.eng.Now(),
		Dispatched:  s.eng.Dispatched(),
		Cycles:      s.cycles,
		DroppedECC:  s.dropped,
		FragRejects: s.fragRejects,
		PeakWaste:   s.peakWaste,
		Machine:     s.mach.Snapshot(),
		Metrics:     s.collector.Snapshot(),
	}
	index := make(map[*job.Job]int, len(s.jobs))
	sn.Jobs = make([]job.Job, len(s.jobs))
	for i, j := range s.jobs {
		index[j] = i
		sn.Jobs[i] = *j
	}
	idxOf := func(list []*job.Job) ([]int, error) {
		if len(list) == 0 {
			return nil, nil
		}
		out := make([]int, len(list))
		for i, j := range list {
			idx, ok := index[j]
			if !ok {
				return nil, fmt.Errorf("engine: snapshot found queued job %d the session does not own", j.ID)
			}
			out[i] = idx
		}
		return out, nil
	}
	var err error
	if sn.Batch, err = idxOf(s.batch.Jobs()); err != nil {
		return nil, err
	}
	if sn.Dedicated, err = idxOf(s.ded.Jobs()); err != nil {
		return nil, err
	}
	if sn.Active, err = idxOf(s.active.Jobs()); err != nil {
		return nil, err
	}

	for _, pe := range s.eng.PendingInOrder() {
		ev := EventSnap{Time: pe.Time, Job: -1}
		switch arg := pe.Arg.(type) {
		case nil:
			ev.Kind = evWake
		case *cwf.Command:
			ev.Kind = evCommand
			c := *arg
			ev.Cmd = &c
		case *fault.Event:
			if arg.Kind == fault.Fail {
				ev.Kind = evFail
			} else {
				ev.Kind = evRepair
			}
			ev.Groups = append([]int(nil), arg.Groups...)
		case *job.Job:
			idx, ok := index[arg]
			if !ok {
				return nil, fmt.Errorf("engine: snapshot found pending event for job %d the session does not own", arg.ID)
			}
			ev.Job = idx
			// A job pointer argument is the job's arrival, its completion,
			// or its next checkpoint; the completion is the one whose handle
			// the completion table holds, the checkpoint the one in the
			// checkpoint table.
			if pe.Handle == s.getCompletion(arg.ID) {
				ev.Kind = evComplete
			} else if h, ok := s.ckpt[arg.ID]; ok && pe.Handle == h {
				ev.Kind = evCkpt
			} else {
				ev.Kind = evArrive
			}
		default:
			return nil, fmt.Errorf("engine: snapshot found pending event with unknown argument %T", pe.Arg)
		}
		sn.Events = append(sn.Events, ev)
	}

	if s.proc != nil {
		p := s.proc.Snapshot()
		sn.ECC = &p
	}
	if sshot, ok := s.cfg.Scheduler.(sched.Snapshotter); ok {
		b, err := sshot.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("engine: capturing %s state: %v", s.cfg.Scheduler.Name(), err)
		}
		sn.SchedState = b
	}
	return sn, nil
}

// Restore reinstates a captured snapshot into this session, which must be
// fresh (no Load, no injections, no steps). The session's Config must
// match the snapshot's geometry and feature flags. The configured
// scheduler need not be the captured one — restoring under a different
// policy is the supported policy-swap resume — but when it is the same
// policy and the snapshot carries policy state, that state is reinstated
// (and the policy must support it).
//
// After Restore the session continues exactly where the captured one
// stood: running it to completion yields a Result identical to the
// uninterrupted run's.
func (s *Session) Restore(sn *Snapshot) error {
	if !s.pristine() {
		return fmt.Errorf("engine: Restore on a session that already has work")
	}
	if sn.Version != SnapshotVersion {
		return versionError(sn.Version)
	}
	if want := settingsOf(&s.cfg); !reflect.DeepEqual(sn.Settings, want) {
		got, _ := json.Marshal(sn.Settings)
		cfg, _ := json.Marshal(want)
		return fmt.Errorf("engine: snapshot settings %s differ from config %s", got, cfg)
	}
	if sn.Metrics.M != s.cfg.M {
		return fmt.Errorf("engine: snapshot metrics for machine %d, config %d", sn.Metrics.M, s.cfg.M)
	}

	// Jobs: one backing slice, pointers into it everywhere (queues, events,
	// machine ownership is by ID).
	clones := make([]job.Job, len(sn.Jobs))
	copy(clones, sn.Jobs)
	jobs := make([]*job.Job, len(clones))
	maxID := 0
	hetero := false
	for i := range clones {
		jobs[i] = &clones[i]
		if clones[i].ID < 0 {
			return fmt.Errorf("engine: snapshot has negative job ID %d", clones[i].ID)
		}
		maxID = max(maxID, clones[i].ID)
		if clones[i].Class == job.Dedicated && clones[i].State != job.Finished {
			hetero = true
		}
	}
	if hetero && !s.cfg.Scheduler.Heterogeneous() {
		return fmt.Errorf("engine: snapshot has live dedicated jobs but %s is batch-only", s.cfg.Scheduler.Name())
	}
	if id, dup := duplicateID(clones, maxID); dup {
		return fmt.Errorf("engine: snapshot has two jobs with ID %d", id)
	}
	if err := checkMembership(sn, jobs); err != nil {
		return err
	}

	mach, err := machine.FromSnapshot(sn.Machine)
	if err != nil {
		return fmt.Errorf("engine: restoring machine: %v", err)
	}
	if mach.Total() != s.cfg.M || mach.Unit() != s.cfg.Unit {
		return fmt.Errorf("engine: snapshot machine state is %d/%d, config %d/%d", mach.Total(), mach.Unit(), s.cfg.M, s.cfg.Unit)
	}
	if err := s.checkEvents(sn, jobs, mach.NumGroups()); err != nil {
		return err
	}

	// All validation that can fail is done; commit to the session.
	s.jobs = jobs
	s.sizeCompletionTable(maxID, len(jobs))
	s.mach = mach
	s.ctx.Machine = mach
	s.collector = metrics.NewCollectorFromSnapshot(sn.Metrics)
	if s.cfg.ProcessECC {
		if sn.ECC != nil {
			s.proc = ecc.NewProcessorFromSnapshot(*sn.ECC)
		} else {
			s.proc = ecc.NewProcessor(s.cfg.MaxECCPerJob)
		}
	}
	s.dropped = sn.DroppedECC
	s.cycles = sn.Cycles
	s.fragRejects = sn.FragRejects
	s.peakWaste = sn.PeakWaste

	for _, idx := range sn.Batch {
		s.batch.Push(jobs[idx]) // plain tail append: reproduces captured order, rigid prefix included
	}
	for _, idx := range sn.Dedicated {
		s.ded.Push(jobs[idx])
	}
	for _, idx := range sn.Active {
		s.active.Insert(jobs[idx])
	}

	// Re-schedule pending events in captured dispatch order: the kernel
	// assigns sequence numbers monotonically, so this order IS the restored
	// dispatch order.
	for _, ev := range sn.Events {
		switch ev.Kind {
		case evArrive:
			s.eng.AtArg(ev.Time, s.arriveH, jobs[ev.Job])
		case evComplete:
			j := jobs[ev.Job]
			s.setCompletion(j.ID, s.eng.AtArg(ev.Time, s.completeH, j))
		case evCkpt:
			j := jobs[ev.Job]
			s.ckpt[j.ID] = s.eng.AtArg(ev.Time, s.ckptH, j)
		case evCommand:
			cp := new(cwf.Command)
			*cp = *ev.Cmd
			s.eng.AtArg(ev.Time, s.commandH, cp)
		case evWake:
			s.eng.At(ev.Time, noopWake)
		case evFail, evRepair:
			kind := fault.Fail
			if ev.Kind == evRepair {
				kind = fault.Repair
			}
			s.eng.AtArg(ev.Time, s.faultH, &fault.Event{Time: ev.Time, Kind: kind, Groups: append([]int(nil), ev.Groups...)})
		}
	}
	s.eng.RestoreClock(sn.Now, sn.Dispatched)

	if len(sn.SchedState) > 0 && sn.Scheduler == s.cfg.Scheduler.Name() {
		sshot, ok := s.cfg.Scheduler.(sched.Snapshotter)
		if !ok {
			return fmt.Errorf("engine: snapshot carries %s state but the configured policy cannot restore it", sn.Scheduler)
		}
		if err := sshot.RestoreState(sn.SchedState); err != nil {
			return fmt.Errorf("engine: restoring %s state: %v", sn.Scheduler, err)
		}
	}
	if s.st != nil {
		// Arm delta delivery and invalidate any caches: the restore-rebuild
		// rule — delta-maintained state is never carried across sessions, it
		// is rebuilt from the restored queues and active list on the first
		// cycle.
		s.st.ResetDeltas()
	}
	s.loaded = true
	return nil
}

// duplicateID returns an ID two of jobs share, if any. IDs are in
// [0, maxID]; a dense ID space is checked with a flat table, as the
// completion table is kept (sizeCompletionTable).
func duplicateID(jobs []job.Job, maxID int) (int, bool) {
	if maxID < 4*len(jobs)+1024 {
		seen := make([]bool, maxID+1)
		for i := range jobs {
			id := jobs[i].ID
			if seen[id] {
				return id, true
			}
			seen[id] = true
		}
		return 0, false
	}
	seen := make(map[int]bool, len(jobs))
	for i := range jobs {
		id := jobs[i].ID
		if seen[id] {
			return id, true
		}
		seen[id] = true
	}
	return 0, false
}

// checkMembership validates a snapshot's queue membership against its
// jobs: every index in range and listed once across the batch queue, the
// dedicated queue and the active list; queued jobs Waiting; active jobs
// Running; and every Running job active.
func checkMembership(sn *Snapshot, jobs []*job.Job) error {
	listed := make([]bool, len(jobs))
	for _, l := range [...]struct {
		where string
		idx   []int
		state job.State
	}{
		{"batch queue", sn.Batch, job.Waiting},
		{"dedicated queue", sn.Dedicated, job.Waiting},
		{"active list", sn.Active, job.Running},
	} {
		for _, idx := range l.idx {
			if idx < 0 || idx >= len(jobs) {
				return fmt.Errorf("engine: snapshot %s references job index %d of %d", l.where, idx, len(jobs))
			}
			j := jobs[idx]
			if listed[idx] {
				return fmt.Errorf("engine: snapshot lists job %d twice across its queues and active list", j.ID)
			}
			listed[idx] = true
			if j.State != l.state {
				return fmt.Errorf("engine: snapshot %s holds job %d in state %v", l.where, j.ID, j.State)
			}
		}
	}
	for i, j := range jobs {
		if j.State == job.Running && !listed[i] {
			return fmt.Errorf("engine: snapshot job %d is running but not in the active list", j.ID)
		}
	}
	return nil
}

// checkEvents validates a snapshot's pending events against its jobs and
// the restored machine's group count, so Restore can schedule them
// without failing part-way.
func (s *Session) checkEvents(sn *Snapshot, jobs []*job.Job, groups int) error {
	ckpt := make(map[int]bool)
	for _, ev := range sn.Events {
		if ev.Time < sn.Now {
			return fmt.Errorf("engine: snapshot event at t=%d before snapshot time %d", ev.Time, sn.Now)
		}
		switch ev.Kind {
		case evArrive, evComplete, evCkpt:
			if ev.Job < 0 || ev.Job >= len(jobs) {
				return fmt.Errorf("engine: snapshot %s event references job index %d of %d", ev.Kind, ev.Job, len(jobs))
			}
			j := jobs[ev.Job]
			if ev.Kind == evArrive {
				continue
			}
			if j.State != job.Running {
				return fmt.Errorf("engine: snapshot %s for job %d in state %v", ev.Kind, j.ID, j.State)
			}
			if ev.Kind == evComplete {
				continue
			}
			if s.ckptH == nil {
				return fmt.Errorf("engine: snapshot checkpoint event at t=%d but the config schedules no checkpoints", ev.Time)
			}
			if ckpt[j.ID] {
				return fmt.Errorf("engine: snapshot has two pending checkpoints for job %d", j.ID)
			}
			ckpt[j.ID] = true
		case evCommand:
			if ev.Cmd == nil {
				return fmt.Errorf("engine: snapshot command event at t=%d without a command", ev.Time)
			}
		case evWake:
		case evFail, evRepair:
			if sn.Retry == nil {
				return fmt.Errorf("engine: snapshot %s event at t=%d without fault injection", ev.Kind, ev.Time)
			}
			if len(ev.Groups) == 0 {
				return fmt.Errorf("engine: snapshot %s event at t=%d names no groups", ev.Kind, ev.Time)
			}
			for _, g := range ev.Groups {
				if g < 0 || g >= groups {
					return fmt.Errorf("engine: snapshot %s event at t=%d group %d out of range", ev.Kind, ev.Time, g)
				}
			}
		default:
			return fmt.Errorf("engine: snapshot event kind %q unknown", ev.Kind)
		}
	}
	return nil
}

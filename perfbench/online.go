package main

import (
	"bytes"
	"fmt"
	"time"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
)

// snapStats accounts the snapshot round trips of one online pass; their
// host time is read from the traced run's spans.
type snapStats struct {
	count int
	bytes int64
}

func (s *snapStats) add(o snapStats) {
	s.count += o.count
	s.bytes += o.bytes
}

// feedOpts configures one online feed.
type feedOpts struct {
	// config builds a fresh engine configuration with a fresh policy; it is
	// called once per session (the first, and every restored one).
	config func() engine.Config
	// snapEvery, when positive, snapshots the session after every
	// snapEvery-th arrival, pushes the snapshot through its encoding, and
	// continues in a fresh session restored from the decoded copy.
	snapEvery int
	// latency, when set, receives the host latency of each arrival's
	// decision in microseconds: Inject, its due InjectCommands, RunUntil.
	latency *[]float64
	tr      *tracer
}

// feed drives one session online over w, in arrival order: each arrival
// is injected, then the commands due by its instant, then the session
// settles at that instant with RunUntil. After the last arrival the
// remaining commands are injected and the session runs dry. Sampled
// faults are armed up front with the horizon Load would use.
func feed(w *cwf.Workload, o feedOpts) (*engine.Result, snapStats, error) {
	var ss snapStats
	tr := o.tr
	var s *engine.Session
	cfg := o.config()
	err := tr.call("engine.New", "engine", func() error {
		var err error
		s, err = engine.New(cfg)
		return err
	})
	if err != nil {
		return nil, ss, err
	}
	if cfg.Faults != nil {
		var horizon int64
		for _, j := range w.Jobs {
			horizon = max(horizon, j.Arrival+j.Dur)
		}
		if err := s.ArmFaults(horizon); err != nil {
			return nil, ss, err
		}
	}
	cmds := w.Commands // sorted by issue (cwf.Workload.Sort)
	ci := 0
	for k, j := range w.Jobs {
		t0 := time.Now()
		err := tr.call("engine.Inject", "engine", func() error {
			if err := s.Inject(j); err != nil {
				return err
			}
			for ; ci < len(cmds) && cmds[ci].Issue <= j.Arrival; ci++ {
				if err := s.InjectCommand(cmds[ci]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, ss, fmt.Errorf("arrival %d (job %d): %w", k, j.ID, err)
		}
		if err := tr.call("engine.RunUntil", "engine", func() error { return s.RunUntil(j.Arrival) }); err != nil {
			return nil, ss, err
		}
		if o.latency != nil {
			*o.latency = append(*o.latency, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if o.snapEvery > 0 && (k+1)%o.snapEvery == 0 && k+1 < len(w.Jobs) {
			if s, err = roundTrip(s, o, &ss); err != nil {
				return nil, ss, fmt.Errorf("snapshot after arrival %d: %w", k, err)
			}
		}
	}
	err = tr.call("engine.InjectCommand", "engine", func() error {
		for ; ci < len(cmds); ci++ {
			if err := s.InjectCommand(cmds[ci]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, ss, err
	}
	if err := tr.call("engine.Run", "engine", s.Run); err != nil {
		return nil, ss, err
	}
	var res *engine.Result
	err = tr.call("engine.Result", "metrics", func() error {
		var err error
		res, err = s.Result()
		return err
	})
	return res, ss, err
}

// roundTrip snapshots s, encodes and decodes the snapshot, and restores it
// into a fresh session, which replaces s.
func roundTrip(s *engine.Session, o feedOpts, ss *snapStats) (*engine.Session, error) {
	tr := o.tr
	var sn *engine.Snapshot
	var buf bytes.Buffer
	var next *engine.Session
	err := tr.call("engine.Session.Snapshot", "snapshot", func() (err error) { sn, err = s.Snapshot(); return })
	if err == nil {
		err = tr.call("engine.Snapshot.Encode", "snapshot", func() error { return sn.Encode(&buf) })
	}
	if err == nil {
		ss.bytes += int64(buf.Len())
		err = tr.call("engine.DecodeSnapshot", "snapshot", func() (err error) { sn, err = engine.DecodeSnapshot(&buf); return })
	}
	if err == nil {
		err = tr.call("engine.Restore", "snapshot", func() (err error) {
			if next, err = engine.New(o.config()); err == nil {
				err = next.Restore(sn)
			}
			return
		})
	}
	if err != nil {
		return nil, err
	}
	ss.count++
	return next, nil
}

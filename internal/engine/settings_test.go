package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"elastisched/internal/fault"
	"elastisched/internal/sched"
)

// settingsCases covers every shape of the Settings record: each
// allocation mode, ECC processing, malleability, and each checkpoint
// policy under both scripted and sampled fault models.
func settingsCases() map[string]Config {
	sampled := func(ckpt fault.CheckpointPolicy, ivl, cost int64) *FaultConfig {
		return &FaultConfig{MTBF: 40000, MTTR: 2000, Seed: 3,
			Retry:      fault.RetryPolicy{MaxRetries: 2, Backoff: 10},
			Checkpoint: ckpt, CheckpointInterval: ivl, CheckpointCost: cost}
	}
	return map[string]Config{
		"plain":      {M: 320, Unit: 32},
		"contiguous": {M: 320, Unit: 32, Contiguous: true},
		"migrate":    {M: 640, Unit: 64, Contiguous: true, Migrate: true},
		"ecc":        {M: 320, Unit: 32, ProcessECC: true, MaxECCPerJob: 2},
		"malleable":  {M: 320, Unit: 32, Malleable: true, ResizeOverhead: 5},
		"scripted-drop": {M: 320, Unit: 32, Faults: &FaultConfig{Trace: &fault.Trace{},
			Retry: fault.RetryPolicy{Mode: fault.Drop}}},
		"scripted-remaining": {M: 320, Unit: 32, Faults: &FaultConfig{Trace: &fault.Trace{},
			Retry: fault.RetryPolicy{Restart: fault.RemainingRuntime, Backoff: 60}}},
		"sampled-none":    {M: 320, Unit: 32, Faults: sampled(fault.CheckpointNone, 0, 0)},
		"periodic":        {M: 320, Unit: 32, Faults: sampled(fault.CheckpointPeriodic, 600, 30)},
		"on-resize":       {M: 320, Unit: 32, Malleable: true, Faults: sampled(fault.CheckpointOnResize, 0, 30)},
		"daly":            {M: 320, Unit: 32, Faults: sampled(fault.CheckpointDaly, 0, 30)},
		"daly-contiguous": {M: 320, Unit: 32, Contiguous: true, Migrate: true, Malleable: true, Faults: sampled(fault.CheckpointDaly, 0, 60)},
		"periodic-scripted": {M: 320, Unit: 32, Faults: &FaultConfig{Trace: &fault.Trace{},
			Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 900, CheckpointCost: 15}},
	}
}

// TestSettingsRoundTrip: Settings.Config inverts settingsOf — the rebuilt
// config captures the same Settings and is accepted by New.
func TestSettingsRoundTrip(t *testing.T) {
	for name, cfg := range settingsCases() {
		st := settingsOf(&cfg)
		back := st.Config()
		if got := settingsOf(&back); !reflect.DeepEqual(got, st) {
			t.Errorf("%s: round trip gives %+v, want %+v", name, got, st)
		}
		back.Scheduler = sched.FCFS{}
		if _, err := New(back); err != nil {
			t.Errorf("%s: rebuilt config rejected: %v", name, err)
		}
	}
}

// TestSettingsConfigRejectsUnknownPolicy: a checkpoint policy no build
// knows rebuilds into a config New rejects with the typed error.
func TestSettingsConfigRejectsUnknownPolicy(t *testing.T) {
	cfg := Settings{M: 320, Unit: 32, Retry: &fault.RetryPolicy{}, Checkpoint: "hourly"}.Config()
	cfg.Scheduler = sched.FCFS{}
	if _, err := New(cfg); !errors.Is(err, fault.ErrUnknownCheckpointPolicy) {
		t.Errorf("New = %v, want ErrUnknownCheckpointPolicy", err)
	}
}

// TestRestoreRejectsEachSettingsField: a one-field change to any of the
// thirteen Settings fields makes Restore refuse the snapshot.
func TestRestoreRejectsEachSettingsField(t *testing.T) {
	cfg := settingsCases()["daly-contiguous"]
	cfg.ProcessECC, cfg.MaxECCPerJob, cfg.ResizeOverhead = true, 2, 5
	fresh := func() *Session {
		c := cfg
		c.Scheduler = sched.FCFS{}
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sn, err := fresh().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh().Restore(sn); err != nil {
		t.Fatalf("unchanged snapshot rejected: %v", err)
	}
	edits := map[string]func(st *Settings){
		"m":                   func(st *Settings) { st.M = 640 },
		"unit":                func(st *Settings) { st.Unit = 64 },
		"contiguous":          func(st *Settings) { st.Contiguous = false },
		"migrate":             func(st *Settings) { st.Migrate = false },
		"process_ecc":         func(st *Settings) { st.ProcessECC = false },
		"max_ecc_per_job":     func(st *Settings) { st.MaxECCPerJob = 3 },
		"retry":               func(st *Settings) { r := *st.Retry; r.MaxRetries++; st.Retry = &r },
		"retry-off":           func(st *Settings) { st.Retry = nil },
		"checkpoint":          func(st *Settings) { st.Checkpoint = "periodic" },
		"checkpoint_interval": func(st *Settings) { st.CheckpointInterval++ },
		"checkpoint_cost":     func(st *Settings) { st.CheckpointCost++ },
		"checkpoint_mtbf":     func(st *Settings) { st.CheckpointMTBF *= 2 },
		"malleable":           func(st *Settings) { st.Malleable = false },
		"resize_overhead":     func(st *Settings) { st.ResizeOverhead++ },
	}
	for name, edit := range edits {
		bad := *sn
		edit(&bad.Settings)
		err := fresh().Restore(&bad)
		if err == nil || !strings.Contains(err.Error(), "settings") {
			t.Errorf("%s: Restore = %v, want a settings mismatch", name, err)
		}
	}
}

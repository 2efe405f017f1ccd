package engine

import (
	"bytes"
	"io"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/fault"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// BenchmarkSimulate500 measures end-to-end simulation throughput of one
// paper-sized run (500 jobs, Load 0.9) per scheduling policy.
func BenchmarkSimulate500(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 500
	p.PS = 0.5
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	batch, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	p.PD = 0.3
	hetero, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"FCFS", "EASY", "CONS", "CONS-D", "LOS", "Delayed-LOS", "EASY-D", "LOS-D", "Hybrid-LOS"} {
		b.Run(name, func(b *testing.B) {
			w := batch
			if freshScheduler(name).Heterogeneous() {
				w = hetero
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(w, Config{
					M: 320, Unit: 32, Scheduler: freshScheduler(name), ProcessECC: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.Events), "events")
					b.ReportMetric(float64(r.Cycles), "cycles")
				}
			}
		})
	}
}

// BenchmarkSimulate500Malleable measures the same paper-sized run with the
// malleability pipeline engaged: every batch job carries bounds, the
// AutoResize decorator proposes shrinks/expands each cycle, and resizes are
// work-conserving with a reconfiguration overhead. Compare against
// BenchmarkSimulate500/EASY to read the cost of true malleability; the
// rigid series itself runs with Malleable off and is gated by benchgate.
func BenchmarkSimulate500Malleable(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 500
	p.PS = 0.5
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	p.PM = 1.0
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("EASY-M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := Run(w, Config{
				M: 320, Unit: 32, Scheduler: sched.NewAutoResize(&sched.EASY{}),
				ProcessECC: true, Malleable: true, ResizeOverhead: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.Events), "events")
				b.ReportMetric(float64(r.Summary.SchedulerResizes), "resizes")
			}
		}
	})
}

// BenchmarkSimulate500Faults measures the paper-sized run with the fault
// pipeline engaged end to end: sampled node-group outages, requeue with
// backoff, and periodic checkpointing with its restart-from-checkpoint
// kill path. Compare against BenchmarkSimulate500/EASY to read the cost
// of fault injection; the EASY cell is required by benchgate so the fault
// hot path cannot silently regress.
func BenchmarkSimulate500Faults(b *testing.B) {
	benchFaults(b, faults500Workload(b), faults500Config)
}

// BenchmarkSimulate5000Faults is the deep-queue fault cell, in the shape of
// perfbench's faults-ckpt: 5000 jobs carrying malleable bounds (which the
// rigid policies ignore), requeue from the remaining runtime, periodic
// checkpoints, no ECC processing. Its batch
// queue runs hundreds of jobs deep, the regime where a scheduling pass that
// can start nothing dominates, so it shows the batch queue's no-fit gate
// that the 500-job cell is too shallow to show.
func BenchmarkSimulate5000Faults(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 5000
	p.PS = 0.5
	p.TargetLoad = 0.9
	p.PM = 1.0
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	benchFaults(b, w, func(name string) Config {
		return Config{
			M: 320, Unit: 32, Scheduler: freshScheduler(name),
			Faults: &FaultConfig{
				MTBF: 40000, MTTR: 2000, Seed: 7,
				Retry:      fault.RetryPolicy{Mode: fault.Requeue, Restart: fault.RemainingRuntime, Backoff: 30},
				Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 1800, CheckpointCost: 60,
			},
		}
	})
}

// faults500Workload is BenchmarkSimulate500Faults' input.
func faults500Workload(tb testing.TB) *cwf.Workload {
	p := workload.DefaultParams()
	p.N = 500
	p.PS = 0.5
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	w, err := workload.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// faults500Config is BenchmarkSimulate500Faults' configuration under the
// named policy.
func faults500Config(name string) Config {
	return Config{
		M: 320, Unit: 32, Scheduler: freshScheduler(name), ProcessECC: true,
		Faults: &FaultConfig{
			MTBF: 40000, MTTR: 2000, Seed: 7,
			Retry:      fault.RetryPolicy{Restart: fault.RemainingRuntime, Backoff: 30},
			Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 1800, CheckpointCost: 60,
		},
	}
}

// benchFaults runs w under EASY and Delayed-LOS with the configuration cfg
// builds, reporting the run's events, kills and checkpoints.
func benchFaults(b *testing.B, w *cwf.Workload, cfg func(name string) Config) {
	for _, name := range []string{"EASY", "Delayed-LOS"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(w, cfg(name))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.Events), "events")
					b.ReportMetric(float64(r.Summary.KilledJobs), "kills")
					b.ReportMetric(float64(r.Summary.CheckpointsTaken), "ckpts")
				}
			}
		})
	}
}

// BenchmarkWorkloadGenerate measures the Lublin-model generator.
func BenchmarkWorkloadGenerate(b *testing.B) {
	p := workload.DefaultParams()
	p.N = 500
	p.PD = 0.3
	p.PE = 0.2
	p.PR = 0.1
	p.TargetLoad = 0.9
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotCodec measures the snapshot codec on a mid-run snapshot
// in the shape of perfbench's online-session: 5,000 generated jobs fed
// online to contiguous Hybrid-LOS with ECC processing, captured after 3000
// arrivals. decode=v4 is DecodeSnapshot, decode=reference the plain
// encoding/json decoder it replaced (snapshot_reference_test.go); benchgate
// pins their same-run ratio. Both read from a bytes.Buffer, as a session
// resumed from memory does.
func BenchmarkSnapshotCodec(b *testing.B) {
	raw := onlineSnapshot(b, 5000, 3000)
	sn, err := DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	decoders := []struct {
		name   string
		decode func(io.Reader) (*Snapshot, error)
	}{
		{"decode=v4", DecodeSnapshot},
		{"decode=reference", referenceDecodeSnapshot},
	}
	for _, dec := range decoders {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dec.decode(bytes.NewBuffer(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("encode", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sn.Encode(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package dispatch

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"elastisched/internal/cwf"
	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// TestMergedSlowdownJobWeighted pins the job-weighted slowdown merge with a
// deliberately asymmetric two-cluster split: cluster 0 gets machine-wide
// short jobs that serialize (high slowdown), cluster 1 gets narrow long
// jobs that never wait (slowdown 1). The merged value must be the
// job-weighted mean of the per-cluster slowdowns — and must NOT be the
// ratio recomputed from the global means, which the asymmetry drives far
// from the weighted view (the ratio of averages is not the average of
// ratios).
func TestMergedSlowdownJobWeighted(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		j := &job.Job{ID: i + 1, Arrival: int64(i * 5), ReqStart: -1}
		if i%2 == 0 {
			j.Size, j.Dur = 320, 100 // even index → cluster 0 under round-robin
		} else {
			j.Size, j.Dur = 32, 10000 // odd index → cluster 1
		}
		jobs = append(jobs, j)
	}
	w := &cwf.Workload{Jobs: jobs}
	res, err := Run(w, Config{
		Clusters:     2,
		Engine:       engine.Config{M: 320, Unit: 32},
		NewScheduler: func() sched.Scheduler { return sched.FCFS{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := res.Clusters[0].Result.Summary, res.Clusters[1].Result.Summary
	if s0.MeanWait == 0 || s1.MeanWait != 0 {
		t.Fatalf("scenario drifted: cluster waits %g / %g, want contention only on cluster 0",
			s0.MeanWait, s1.MeanWait)
	}
	n0, n1 := float64(s0.Jobs), float64(s1.Jobs)
	want := (s0.Slowdown*n0 + s1.Slowdown*n1) / (n0 + n1)
	if got := res.Merged.Slowdown; got != want {
		t.Fatalf("merged Slowdown = %g, want job-weighted %g", got, want)
	}
	ratioOfMeans := (res.Merged.MeanWait + res.Merged.MeanRun) / res.Merged.MeanRun
	if math.Abs(want-ratioOfMeans) < 0.1 {
		t.Fatalf("weighted (%g) and ratio-of-means (%g) agree; the asymmetry test is vacuous",
			want, ratioOfMeans)
	}
}

// TestMergedOrderStatsExact is the differential acceptance test for the
// exact global order statistics: for every routing policy, the merged
// MedianWait/P95Wait must equal — exactly, not approximately — the values
// computed from the per-cluster sample vectors concatenated in
// cluster-index order, and the steady-state window, utilization, and mean
// wait must equal an independent recomputation from the same per-cluster
// samples using the collector's formulas.
func TestMergedOrderStatsExact(t *testing.T) {
	w := testWorkload(t, 180, 17)
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			res, err := Run(w, Config{
				Clusters:     3,
				Engine:       engine.Config{M: 320, Unit: 32, ProcessECC: true},
				NewScheduler: losFactory,
				Route:        policy,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Concatenate samples in cluster-index order, as the merge does.
			var waits []float64
			var perJob []metrics.JobPoint
			for _, c := range res.Clusters {
				sm := c.Result.Samples
				if sm == nil {
					t.Fatalf("cluster %d has no samples", c.Cluster)
				}
				for _, p := range sm.PerJob {
					waits = append(waits, p.Wait)
				}
				perJob = append(perJob, sm.PerJob...)
			}
			n := len(waits)
			if n != res.Merged.Jobs {
				t.Fatalf("%d wait samples for %d merged jobs", n, res.Merged.Jobs)
			}

			// Median / p95 against a full sort of the concatenation.
			sorted := append([]float64(nil), waits...)
			sort.Float64s(sorted)
			if want := sorted[int(0.5*float64(n-1))]; res.Merged.MedianWait != want {
				t.Errorf("MedianWait = %v, sorted concatenation gives %v", res.Merged.MedianWait, want)
			}
			if want := sorted[int(0.95*float64(n-1))]; res.Merged.P95Wait != want {
				t.Errorf("P95Wait = %v, sorted concatenation gives %v", res.Merged.P95Wait, want)
			}

			// Steady window from the sorted global completion instants.
			finishes := make([]int64, n)
			for i, p := range perJob {
				finishes[i] = p.Finish
			}
			sort.Slice(finishes, func(i, j int) bool { return finishes[i] < finishes[j] })
			t0, t1 := finishes[n/10], finishes[n-1-n/10]
			if res.Merged.SteadyWindow != [2]int64{t0, t1} {
				t.Fatalf("SteadyWindow = %v, want [%d %d]", res.Merged.SteadyWindow, t0, t1)
			}
			if t1 <= t0 {
				t.Fatalf("degenerate steady window [%d %d]; pick a bigger workload", t0, t1)
			}

			// Steady utilization and mean wait, reaccumulated in the same
			// cluster-index order so the floating-point sums are identical.
			var area, waitSum float64
			var steadyJobs int
			for _, c := range res.Clusters {
				area += busyArea(c.Result.Samples.BusySteps, t0, t1)
				for _, p := range c.Result.Samples.PerJob {
					if p.Arrival >= t0 && p.Arrival <= t1 {
						waitSum += p.Wait
						steadyJobs++
					}
				}
			}
			wantUtil := area / (float64(t1-t0) * float64(res.Merged.MachineSize))
			if res.Merged.SteadyUtilization != wantUtil {
				t.Errorf("SteadyUtilization = %v, recomputation gives %v", res.Merged.SteadyUtilization, wantUtil)
			}
			if steadyJobs == 0 {
				t.Fatal("no arrivals inside the steady window; the scenario exercises nothing")
			}
			if want := waitSum / float64(steadyJobs); res.Merged.SteadyMeanWait != want {
				t.Errorf("SteadyMeanWait = %v, recomputation gives %v", res.Merged.SteadyMeanWait, want)
			}
			if res.Merged.SteadyUtilization <= 0 || res.Merged.MedianWait < 0 {
				t.Error("order statistics look unpopulated")
			}
		})
	}
}

// TestSingleClusterMergedIsPassthrough: with one cluster the merged summary
// is the engine summary itself — every field, order statistics and
// MaxQueueDepth included.
func TestSingleClusterMergedIsPassthrough(t *testing.T) {
	w := testWorkload(t, 120, 9)
	res, err := Run(w, Config{
		Clusters:     1,
		Engine:       engine.Config{M: 320, Unit: 32, ProcessECC: true},
		NewScheduler: losFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Merged, res.Clusters[0].Result.Summary) {
		t.Fatalf("merged %+v is not the single cluster's summary %+v",
			res.Merged, res.Clusters[0].Result.Summary)
	}
	if res.Merged.MedianWait == 0 && res.Merged.P95Wait == 0 {
		t.Fatal("single-cluster order statistics missing from passthrough")
	}
}

// TestMergedFaultCountersSumClusters: the fault, checkpoint and resize
// counters of a multi-cluster run merge as plain sums over the clusters.
// The run injects faults under periodic checkpoints with malleable jobs
// and an AutoResize policy, so every counter is nonzero somewhere.
func TestMergedFaultCountersSumClusters(t *testing.T) {
	p := workload.DefaultParams()
	p.N, p.Seed, p.PM = 200, 5, 0.4
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Config{
		Clusters: 2,
		Engine: engine.Config{
			M: 320, Unit: 32, Malleable: true, ResizeOverhead: 5,
			Faults: &engine.FaultConfig{
				MTBF: 40000, MTTR: 2000, Seed: 3,
				Checkpoint: fault.CheckpointPeriodic, CheckpointInterval: 600, CheckpointCost: 30,
			},
		},
		NewScheduler: func() sched.Scheduler { return sched.NewAutoResize(losFactory()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum metrics.Summary
	for _, c := range res.Clusters {
		s := c.Result.Summary
		sum.KilledJobs += s.KilledJobs
		sum.RetriedJobs += s.RetriedJobs
		sum.DroppedJobs += s.DroppedJobs
		sum.LostWorkSeconds += s.LostWorkSeconds
		sum.DownProcSeconds += s.DownProcSeconds
		sum.CheckpointsTaken += s.CheckpointsTaken
		sum.CheckpointOverheadSeconds += s.CheckpointOverheadSeconds
		sum.SchedulerResizes += s.SchedulerResizes
		sum.ShrunkProcSeconds += s.ShrunkProcSeconds
		sum.ReconfigOverheadSeconds += s.ReconfigOverheadSeconds
	}
	type counters struct {
		Killed, Retried, Dropped, Ckpts, Resizes   int
		Lost, Down, CkptOverhead, Shrunk, Reconfig float64
	}
	of := func(s metrics.Summary) counters {
		return counters{s.KilledJobs, s.RetriedJobs, s.DroppedJobs, s.CheckpointsTaken, s.SchedulerResizes,
			s.LostWorkSeconds, s.DownProcSeconds, s.CheckpointOverheadSeconds, s.ShrunkProcSeconds, s.ReconfigOverheadSeconds}
	}
	if got, want := of(res.Merged), of(sum); got != want {
		t.Errorf("merged counters %+v, want the cluster sums %+v", got, want)
	}
	if sum.KilledJobs == 0 || sum.CheckpointsTaken == 0 || sum.SchedulerResizes == 0 ||
		sum.ShrunkProcSeconds == 0 || sum.ReconfigOverheadSeconds == 0 {
		t.Fatalf("run left a counter at zero, the test exercises too little: %+v", of(sum))
	}
}

// busyArea integrates a busy step function over [t0, t1] segment by
// segment: the busy processor-seconds inside the window.
func busyArea(steps []metrics.BusyStep, t0, t1 int64) float64 {
	var area float64
	for i, st := range steps {
		end := t1
		if i+1 < len(steps) {
			end = min(end, steps[i+1].T)
		}
		if start := max(st.T, t0); end > start {
			area += float64(st.Busy) * float64(end-start)
		}
	}
	return area
}

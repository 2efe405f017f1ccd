package experiment

import (
	"errors"
	"strings"
	"testing"

	"elastisched/internal/dispatch"
	"elastisched/internal/engine"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

func shardedSweep(route string) *Sweep {
	p := workload.DefaultParams()
	p.N = 80
	p.TargetLoad = 0.8
	return &Sweep{
		ID: "sharded-tiny", Title: "sharded", XLabel: "Load",
		Algorithms: algos("EASY", "Delayed-LOS"),
		Points:     []Point{{X: 0.8, Params: p, Cs: 7, Clusters: 2, Route: route}},
		Seeds:      []int64{1, 2},
	}
}

// TestSweepShardedPoint: a point with Clusters > 1 runs on the sharded
// dispatcher and the cell carries the merged global summary — pinned by
// replaying the same (workload, algorithm) directly through dispatch.Run.
func TestSweepShardedPoint(t *testing.T) {
	s := shardedSweep(dispatch.RouteLeastWork)
	r, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	params := s.Points[0].Params
	params.Seed = s.Seeds[0]
	w, err := workload.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	a := MustByName("EASY")
	ref, err := dispatch.Run(w, dispatch.Config{
		Clusters: 2,
		Route:    dispatch.RouteLeastWork,
		Engine: engine.Config{
			M: params.M, Unit: params.Unit,
			ProcessECC: a.ECC, MaxECCPerJob: params.MaxECCPerJob,
		},
		NewScheduler: func() sched.Scheduler { return a.New(s.Points[0]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cells[0][0].PerSeed[0]; got != ref.Merged {
		t.Fatalf("sweep cell summary %+v != direct dispatch merge %+v", got, ref.Merged)
	}
	if r.Cells[0][0].Summary.Utilization <= 0 {
		t.Fatal("sharded cell summary empty")
	}
}

// TestSweepShardedDeterministicAcrossWorkers: sharded points keep the
// sweep's worker-count independence.
func TestSweepShardedDeterministicAcrossWorkers(t *testing.T) {
	r1, err := shardedSweep(dispatch.RouteBestFit).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := shardedSweep(dispatch.RouteBestFit).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for ai := range r1.Cells {
		for pi := range r1.Cells[ai] {
			if r1.Cells[ai][pi].Summary != r4.Cells[ai][pi].Summary {
				t.Fatalf("sharded cell (%d,%d) differs across worker counts", ai, pi)
			}
		}
	}
}

// TestSweepRouteValidation: a Route on a non-sharded point and an unknown
// policy name both fail before any workload is generated.
func TestSweepRouteValidation(t *testing.T) {
	s := shardedSweep(dispatch.RouteLeastWork)
	s.Points[0].Clusters = 1
	if _, err := s.Run(1); err == nil || !strings.Contains(err.Error(), "without Clusters") {
		t.Fatalf("Route without Clusters accepted: %v", err)
	}
	s = shardedSweep("no-such-policy")
	if _, err := s.Run(1); err == nil || !strings.Contains(err.Error(), "unknown routing policy") {
		t.Fatalf("unknown policy accepted: %v", err)
	}
}

// TestSweepDispatchValidation: a sharded point is checked by the
// dispatcher's own validator before any workload is generated, so every
// dispatch rule — dynamic knobs needing an epoch, a non-negative affinity
// class — fails a sweep with the dispatcher's typed error.
func TestSweepDispatchValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Point)
		want   error
	}{
		{"feedback without epoch", func(p *Point) { p.Route = dispatch.RouteFeedback }, dispatch.ErrEpochRequired},
		{"steal without epoch", func(p *Point) { p.Steal = true }, dispatch.ErrEpochRequired},
		{"negative affinity", func(p *Point) { p.Epoch, p.Affinity = 1009, -3 }, dispatch.ErrNegativeAffinity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := shardedSweep("")
			tc.mutate(&s.Points[0])
			r, err := s.Run(1)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
			if r != nil {
				t.Fatal("rejected sweep returned a result")
			}
		})
	}
}

package experiment

import (
	"errors"
	"math"
	"testing"

	"elastisched/internal/engine"
	"elastisched/internal/fault"
	"elastisched/internal/workload"
)

// TestValidateRobustness covers the typed up-front validation of the
// fault and checkpoint knobs on a sweep point, errors.Is-testable.
func TestValidateRobustness(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Point)
		want error
	}{
		{"zero point ok", func(p *Point) {}, nil},
		{"faulty point ok", func(p *Point) { p.MTBF = 40000; p.MTTR = 2000 }, nil},
		{"periodic ok", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointPolicy = fault.CheckpointPeriodic
			p.CheckpointInterval = 600
			p.CheckpointCost = 30
		}, nil},
		{"daly ok", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointPolicy = fault.CheckpointDaly
			p.CheckpointCost = 30
		}, nil},
		{"on-resize ok", func(p *Point) {
			p.MTBF = 40000
			p.Malleable = true
			p.CheckpointPolicy = fault.CheckpointOnResize
			p.CheckpointCost = 30
		}, nil},

		{"negative MTBF", func(p *Point) { p.MTBF = -1 }, fault.ErrNonPositiveMTBF},
		{"NaN MTBF", func(p *Point) { p.MTBF = math.NaN() }, fault.ErrNonPositiveMTBF},
		{"negative MTTR", func(p *Point) { p.MTTR = -1 }, fault.ErrNegativeMTTR},
		{"NaN MTTR", func(p *Point) { p.MTTR = math.NaN() }, fault.ErrNegativeMTTR},
		{"negative resize overhead", func(p *Point) { p.ResizeOverhead = -3 }, ErrNegativeResizeOverhead},
		{"bad retry", func(p *Point) { p.Retry.MaxRetries = -1 }, fault.ErrNegativeRetries},
		{"negative checkpoint cost", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointPolicy = fault.CheckpointPeriodic
			p.CheckpointInterval = 600
			p.CheckpointCost = -1
		}, fault.ErrNegativeCheckpointCost},
		{"interval without periodic", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointInterval = 600
		}, fault.ErrIntervalWithoutPeriodic},
		{"cost without policy", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointCost = 60
		}, fault.ErrCostWithoutPolicy},
		{"periodic without interval", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointPolicy = fault.CheckpointPeriodic
		}, fault.ErrNonPositiveInterval},
		{"daly without cost", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointPolicy = fault.CheckpointDaly
		}, fault.ErrDalyNeedsCost},
		{"checkpoint without faults", func(p *Point) {
			p.CheckpointPolicy = fault.CheckpointPeriodic
			p.CheckpointInterval = 600
			p.CheckpointCost = 30
		}, ErrCheckpointWithoutFaults},
		{"on-resize without malleable", func(p *Point) {
			p.MTBF = 40000
			p.CheckpointPolicy = fault.CheckpointOnResize
			p.CheckpointCost = 30
		}, engine.ErrOnResizeNeedsMalleable},
	}
	for _, c := range cases {
		p := Point{Cs: 5}
		c.mut(&p)
		err := p.ValidateRobustness()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: ValidateRobustness() = %v, want nil", c.name, err)
			}
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: ValidateRobustness() = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestSweepRejectsBadRobustnessPoint wires the validation into Sweep.Run:
// a malformed point must fail the whole sweep up front with the typed
// error, before any run is attempted.
func TestSweepRejectsBadRobustnessPoint(t *testing.T) {
	p := workload.DefaultParams()
	p.N = 10
	bad := Point{X: 1, Params: p, Cs: 5, MTBF: math.NaN()}
	sw := &Sweep{
		ID:         "bad-robustness",
		Algorithms: []Algorithm{MustByName("EASY")},
		Points:     []Point{bad},
		Seeds:      []int64{1},
	}
	if _, err := sw.Run(1); !errors.Is(err, fault.ErrNonPositiveMTBF) {
		t.Fatalf("Sweep.Run = %v, want ErrNonPositiveMTBF", err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"elastisched/internal/experiment"
	"elastisched/internal/sched"
)

// small shrinks a workload's full scale for tests.
func small(sc scale) scale {
	sc.jobs = min(sc.jobs, 150)
	if sc.loads != nil {
		sc.loads = []float64{0.9, 1.0}
	}
	sc.seeds = 1
	if sc.snapEvery > 0 {
		sc.snapEvery = 40
	}
	return sc
}

// TestTracedMatchesUntraced is the traced/untraced equivalence property:
// on every workload, a traced pass — every policy behind the timing
// decorator, observers attached, spans recorded — reproduces the untraced
// pass exactly (summaries, events, cycles, fault and ECC counters), and
// the untraced output passes verification with a digest that repeats.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			inst, err := def.setup(7, small(def.full))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := inst.pass(nil, false)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := inst.pass(tr, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSame(plain, traced); err != nil {
				t.Fatalf("traced pass diverged: %v", err)
			}
			calls := int64(0)
			for _, ps := range tr.policies.all() {
				calls += ps.calls
			}
			if calls == 0 || len(tr.spans) == 0 {
				t.Fatalf("traced pass recorded %d policy calls and %d spans", calls, len(tr.spans))
			}
			v1, v2 := inst.verify(plain), inst.verify(traced)
			if v1.failed != 0 {
				t.Fatalf("verification failed: %v", v1.problems)
			}
			if v1.digest != v2.digest {
				t.Fatalf("schedule digest does not repeat: %s vs %s", v1.digest, v2.digest)
			}
			if _, err := inst.probe(); err != nil {
				t.Fatalf("latency probe: %v", err)
			}
		})
	}
}

// TestDecoratorKeepsOptionalInterfaces checks that the timing decorator
// exposes exactly the optional interfaces of the policy it wraps, for
// every registry algorithm and the AutoResize (-M) decorator, whose inner
// policy is wrapped in turn. A decorator that dropped sched.Stateful would
// turn off the engine's delta fast path; one that dropped
// sched.Snapshotter would lose policy state across a restore.
func TestDecoratorKeepsOptionalInterfaces(t *testing.T) {
	type optional struct{ stateful, snapshotter, malleable bool }
	shape := func(s sched.Scheduler) optional {
		_, st := s.(sched.Stateful)
		_, sn := s.(sched.Snapshotter)
		_, ml := s.(sched.Malleable)
		return optional{st, sn, ml}
	}
	names := experiment.Names()
	for _, n := range experiment.Names() {
		names = append(names, n+"-M")
	}
	pt := experiment.Point{Cs: 5}
	for _, name := range names {
		a := experiment.MustByName(name)
		want := shape(a.New(pt))
		raw := a.New(pt)
		var wantInner optional
		var inner sched.Scheduler
		ar, isAR := raw.(*sched.AutoResize)
		if isAR {
			inner = ar.Inner
			wantInner = shape(inner)
		}
		wrapped, ps := instrument(raw, &policySet{})
		if got := shape(wrapped); got != want {
			t.Errorf("%s: decorator exposes %+v, policy %+v", name, got, want)
		}
		if wrapped.Name() != raw.Name() || wrapped.Heterogeneous() != raw.Heterogeneous() {
			t.Errorf("%s: decorator changes Name or Heterogeneous", name)
		}
		if ps.layer != policyLayer(a.New(pt)) {
			t.Errorf("%s: layer %s", name, ps.layer)
		}
		if isAR {
			// instrument wraps the AutoResize's inner policy in place.
			if ar.Inner == inner {
				t.Errorf("%s: inner policy not decorated", name)
			}
			if got := shape(ar.Inner); got != wantInner {
				t.Errorf("%s: wrapped inner exposes %+v, inner %+v", name, got, wantInner)
			}
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the metrics the program
// prints: every declared end-to-end and per-layer metric, and the
// declared workloads, exist here.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	e2e := map[string]string{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = m.unit
	}
	for _, m := range spec.EndToEnd {
		if u, ok := e2e[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s (%s) not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	layer := map[string]string{}
	collect := func(name, unit string, _ float64) { layer[name] = unit }
	layerMetrics(collect, setupTimes{}, []tracedPass{{out: &passOut{}, tr: newTracer(), wall: 1}}, verdict{}, runStats{})
	for _, m := range spec.PerLayer {
		if u, ok := layer[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s) not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(layer) {
		var missing []string
		for n := range layer {
			missing = append(missing, n)
		}
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, program prints %d: %s",
			len(spec.PerLayer), len(layer), strings.Join(missing, ","))
	}
}

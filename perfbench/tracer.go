package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"elastisched/internal/job"
)

// span is one timed call into the program, recorded from the benchmark's
// side of a public entry point.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"` // module the span's self time belongs to
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Policy is the policy busy time inside the span, children included;
	// Child the duration of the span's direct child spans.
	Policy int64 `json:"policy_ns"`
	Child  int64 `json:"child_ns"`

	policyAt int64 // policy busy total at Start
}

// Self is the span's own time: its duration minus its child spans and
// minus the policy time not already inside a child.
func (s *span) Self(childPolicy int64) int64 {
	return (s.End - s.Start) - s.Child - (s.Policy - childPolicy)
}

// tracer keeps spans in memory for one traced invocation. It is used from
// one goroutine; policy busy time reaches it through the policySet, whose
// decorators run on the dispatcher's single worker in traced runs.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
	policies *policySet
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), policies: &policySet{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// policyTotal is the busy time of every policy registered so far.
func (t *tracer) policyTotal() int64 { return int64(t.policies.busy) }

// begin opens a span; end closes the innermost one. A nil tracer is a
// no-op, so untraced code paths call them unconditionally.
func (t *tracer) begin(name, layer string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Start: t.now(), policyAt: t.policyTotal()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = t.now()
	s.Policy = t.policyTotal() - s.policyAt
	if s.Parent >= 0 {
		t.spans[s.Parent].Child += s.End - s.Start
	}
}

// call wraps f in a span.
func (t *tracer) call(name, layer string, f func() error) error {
	t.begin(name, layer)
	err := f()
	t.end()
	return err
}

// selfByLayer folds the spans into self time per layer, in seconds; policy
// busy time goes to the policies' own layers (core, sched).
func (t *tracer) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	childPolicy := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			childPolicy[p] += t.spans[i].Policy
		}
	}
	for i := range t.spans {
		out[t.spans[i].Layer] += float64(t.spans[i].Self(childPolicy[i])) / 1e9
	}
	for _, ps := range t.policies.all() {
		out[ps.layer] += ps.busy.Seconds()
		// Resize proposals come from sched.AutoResize whatever it wraps.
		out["sched"] += ps.resizeBusy.Seconds()
	}
	return out
}

// spanSeconds totals the durations of the spans with the given name.
func (t *tracer) spanSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerTable renders self time per layer as a share of wall.
func layerTable(self map[string]float64, wall float64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	s := fmt.Sprintf("%-10s %10s %7s\n", "layer", "self_s", "share")
	for _, n := range names {
		if self[n] != 0 {
			s += fmt.Sprintf("%-10s %10.4f %6.1f%%\n", n, self[n], 100*self[n]/wall)
		}
	}
	return s
}

// countObserver is an engine.Observer that only counts: placements, and
// fault-path shrinks — system-initiated resizes not matched by a pending
// scheduler proposal of the session's policy.
type countObserver struct {
	ps         *policyStats
	placements int
	shrinks    int
}

func (o *countObserver) JobStarted(*job.Job, int64, []int) { o.placements++ }
func (o *countObserver) JobFinished(*job.Job, int64)       {}
func (o *countObserver) JobKilled(*job.Job, int64)         {}
func (o *countObserver) JobResized(_ *job.Job, _ int64, _, _ int, auto bool) {
	switch {
	case !auto:
	case o.ps != nil && o.ps.pending > 0:
		o.ps.pending--
	default:
		o.shrinks++
	}
}

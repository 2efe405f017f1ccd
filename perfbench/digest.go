package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"elastisched/internal/metrics"
	"elastisched/internal/trace"
)

// digester hashes simulated outputs into a stable schedule digest: the
// same inputs and the same schedule give the same digest on any host, so
// a perf-only change can show that no simulated statistic moved.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

// summary hashes every field of a run summary; %v prints floats in their
// shortest exact form, so equal summaries hash equally.
func (d *digester) summary(s metrics.Summary) { fmt.Fprintf(d.h, "%+v\n", s) }

// spans hashes each placement's job, attempt window and size.
func (d *digester) spans(spans []trace.Span) {
	for _, sp := range spans {
		fmt.Fprintf(d.h, "%d %d %d %d %t\n", sp.JobID, sp.Start, sp.End, sp.Size, sp.Killed)
	}
}

// points hashes exported per-job (arrival, finish, wait) records.
func (d *digester) points(ps []metrics.JobPoint) {
	for _, p := range ps {
		fmt.Fprintf(d.h, "%d %d %v\n", p.Arrival, p.Finish, p.Wait)
	}
}

// owners hashes a job → cluster map in job order.
func (d *digester) owners(m map[int]int) {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(d.h, "%d@%d\n", id, m[id])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// Package benchparse parses raw `go test -bench -benchmem` output into
// structured measurements and keeps the benchmark ledger, BENCH.json. It
// is shared by cmd/benchjson (which records fresh numbers into the
// ledger) and cmd/benchgate (which compares fresh runs against it).
package benchparse

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Bench is one benchmark measurement as emitted by `go test -bench`.
type Bench struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	// Metrics holds custom b.ReportMetric columns (e.g. "jobs/sec",
	// "wl-generated/op") keyed by their unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Env captures the machine identification lines of the bench output.
type Env struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
}

// Parse reads raw `go test -bench -benchmem` output: goos/goarch/
// cpu/pkg header lines set the environment and package attribution, and
// each Benchmark line becomes one Bench. The GOMAXPROCS suffix
// (BenchmarkFoo-8) is stripped from names so snapshots from machines
// with different core counts stay comparable.
func Parse(r io.Reader) ([]Bench, Env, error) {
	var (
		out []Bench
		env Env
		pkg string
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			env.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			env.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			env.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line, pkg); ok {
				out = append(out, b)
			}
		}
	}
	return out, env, sc.Err()
}

// parseBenchLine parses a single result line of the form
//
//	BenchmarkBasicDP-4   16438834   72.09 ns/op   0 B/op   0 allocs/op
//
// Unknown units are collected into Metrics, so extra ReportMetric columns
// are preserved in the snapshot. ok is false for non-result Benchmark
// lines (e.g. bare names printed under -v).
func parseBenchLine(line, pkg string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: stripProcs(fields[0]), Pkg: pkg, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = v
		}
	}
	return b, seen
}

// stripProcs removes the trailing -GOMAXPROCS suffix from a benchmark
// name, if present.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Row is one ledger entry: a measurement with the date and host it was
// recorded on.
type Row struct {
	Bench
	Generated string `json:"generated"`
	Env
}

// Ledger is the committed benchmark record: one row per benchmark, keyed
// by (Pkg, Name) and sorted by that key.
type Ledger struct {
	Rows []Row `json:"benchmarks"`
}

// ReadLedger loads a ledger; a missing file is an empty ledger.
func ReadLedger(path string) (*Ledger, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &Ledger{}, nil
	}
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// Record replaces the row of every benchmark in benches, or adds one, as
// measured on date by env. Of repeated measurements (-count > 1) the last
// one is kept.
func (l *Ledger) Record(date string, env Env, benches []Bench) {
	at := make(map[[2]string]int, len(l.Rows))
	for i, r := range l.Rows {
		at[[2]string{r.Pkg, r.Name}] = i
	}
	for _, b := range benches {
		row := Row{Bench: b, Generated: date, Env: env}
		key := [2]string{b.Pkg, b.Name}
		if i, ok := at[key]; ok {
			l.Rows[i] = row
			continue
		}
		at[key] = len(l.Rows)
		l.Rows = append(l.Rows, row)
	}
	slices.SortFunc(l.Rows, func(a, b Row) int {
		return cmp.Or(cmp.Compare(a.Pkg, b.Pkg), cmp.Compare(a.Name, b.Name))
	})
}

// Write stores the ledger as indented JSON.
func (l *Ledger) Write(path string) error {
	js, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

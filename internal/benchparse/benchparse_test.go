package benchparse

import (
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: elastisched/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBasicDP-4         	16438834	        72.09 ns/op	       0 B/op	       0 allocs/op
BenchmarkReservationDP-4   	15740254	        76.33 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	elastisched/internal/core	2.661s
goos: linux
goarch: amd64
pkg: elastisched/internal/sched
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProfileBuild64    	  234837	      4932 ns/op	    1216 B/op	       3 allocs/op
PASS
ok  	elastisched/internal/sched	1.001s
`

func TestParseBench(t *testing.T) {
	benches, env, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if env.GOOS != "linux" || env.GOARCH != "amd64" || !strings.Contains(env.CPU, "Xeon") {
		t.Errorf("env = %+v", env)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	b := benches[0]
	if b.Name != "BenchmarkBasicDP" || b.Pkg != "elastisched/internal/core" {
		t.Errorf("first bench = %+v", b)
	}
	if b.NsPerOp != 72.09 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 || b.Iterations != 16438834 {
		t.Errorf("first bench numbers = %+v", b)
	}
	p := benches[2]
	if p.Pkg != "elastisched/internal/sched" || p.NsPerOp != 4932 || p.BytesPerOp != 1216 || p.AllocsPerOp != 3 {
		t.Errorf("profile bench = %+v", p)
	}
}

func TestParseBenchLineVariants(t *testing.T) {
	// No -procs suffix (GOMAXPROCS=1) and no -benchmem columns.
	b, ok := parseBenchLine("BenchmarkX 100 5.0 ns/op", "p")
	if !ok || b.Name != "BenchmarkX" || b.NsPerOp != 5.0 {
		t.Errorf("plain line: %+v ok=%v", b, ok)
	}
	// A name whose trailing segment is not a number keeps its dash.
	b, _ = parseBenchLine("BenchmarkA-b-4 100 5.0 ns/op", "p")
	if b.Name != "BenchmarkA-b" {
		t.Errorf("suffix strip: %q", b.Name)
	}
	// Non-result lines are rejected.
	if _, ok := parseBenchLine("BenchmarkX", "p"); ok {
		t.Error("bare name accepted")
	}
	if _, ok := parseBenchLine("BenchmarkX 100 garbage ns/op", "p"); ok {
		t.Error("garbage value accepted")
	}
	if _, ok := parseBenchLine("BenchmarkX 100 5 bogounits extra", "p"); ok {
		t.Error("line without ns/op accepted")
	}
}

// TestLedgerRecord: re-recording a benchmark replaces its row (the last
// of repeated measurements wins), new benchmarks add rows, untouched rows
// keep their date, and the ledger survives a write/read round trip sorted
// by (pkg, name).
func TestLedgerRecord(t *testing.T) {
	env := Env{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "x"}
	l := &Ledger{}
	l.Record("2026-01-01", env, []Bench{
		{Pkg: "p/b", Name: "BenchmarkY", NsPerOp: 10},
		{Pkg: "p/a", Name: "BenchmarkX", NsPerOp: 20, AllocsPerOp: 3},
	})
	l.Record("2026-02-02", env, []Bench{
		{Pkg: "p/b", Name: "BenchmarkY", NsPerOp: 12},
		{Pkg: "p/b", Name: "BenchmarkY", NsPerOp: 11},
		{Pkg: "p/a", Name: "BenchmarkZ", NsPerOp: 5},
	})
	path := t.TempDir() + "/BENCH.json"
	if err := l.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{Bench: Bench{Pkg: "p/a", Name: "BenchmarkX", NsPerOp: 20, AllocsPerOp: 3}, Generated: "2026-01-01", Env: env},
		{Bench: Bench{Pkg: "p/a", Name: "BenchmarkZ", NsPerOp: 5}, Generated: "2026-02-02", Env: env},
		{Bench: Bench{Pkg: "p/b", Name: "BenchmarkY", NsPerOp: 11}, Generated: "2026-02-02", Env: env},
	}
	if !reflect.DeepEqual(back.Rows, want) {
		t.Errorf("ledger rows %+v, want %+v", back.Rows, want)
	}
	if empty, err := ReadLedger(t.TempDir() + "/missing.json"); err != nil || len(empty.Rows) != 0 {
		t.Errorf("missing ledger = %+v, %v; want empty", empty, err)
	}
}

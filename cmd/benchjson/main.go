// Command benchjson runs the repository's performance benchmarks and
// records them in the benchmark ledger, BENCH.json, so kernel regressions
// show up in review as a diff against the committed numbers. Each fresh
// measurement replaces the ledger row of the same (pkg, name), stamped
// with today's date and this host; rows of benchmarks not re-run stay as
// they were. See DESIGN.md, "Packing-engine performance", for the
// regeneration workflow.
//
// Usage:
//
//	go run ./cmd/benchjson                         # record everything into BENCH.json
//	go run ./cmd/benchjson -bench Simulate500 -pkgs ./internal/engine
//	go run ./cmd/benchjson -out other.json -count 3
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"elastisched/internal/benchparse"
)

func main() {
	var (
		out     = flag.String("out", "BENCH.json", "benchmark ledger to update")
		benchRE = flag.String("bench", ".", "benchmark name regexp passed to go test")
		pkgs    = flag.String("pkgs", "./internal/core,./internal/sched,./internal/simkit,./internal/engine,./internal/experiment,./internal/machine,./internal/dispatch", "comma-separated packages to benchmark")
		count   = flag.Int("count", 1, "-count passed to go test")
		benchT  = flag.String("benchtime", "", "-benchtime passed to go test (empty = default)")
	)
	flag.Parse()

	args := []string{"test", "-run=NONE", "-bench", *benchRE, "-benchmem", "-count", fmt.Sprint(*count)}
	if *benchT != "" {
		args = append(args, "-benchtime", *benchT)
	}
	args = append(args, strings.Split(*pkgs, ",")...)

	var buf bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr) // live progress and capture
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatal(fmt.Errorf("go %s: %w", strings.Join(args, " "), err))
	}

	benches, env, err := benchparse.Parse(&buf)
	if err != nil {
		fatal(err)
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed — check -bench %q", *benchRE))
	}
	env.Go = runtime.Version()

	ledger, err := benchparse.ReadLedger(*out)
	if err != nil {
		fatal(err)
	}
	ledger.Record(time.Now().Format("2006-01-02"), env, benches)
	if err := ledger.Write(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks in %s (%d rows)\n", len(benches), *out, len(ledger.Rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

package engine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"elastisched/internal/core"
	"elastisched/internal/fault"
	"elastisched/internal/sched"
	"elastisched/internal/workload"
)

// onlineSnapshot encodes a session in the shape of perfbench's
// online-session: n generated jobs (30% dedicated, ECC streams) fed online
// to Hybrid-LOS with ECC processing on a contiguous migrating 4096-processor
// machine, snapshotted after the first arrivals of them.
func onlineSnapshot(tb testing.TB, n, arrivals int) []byte {
	tb.Helper()
	p := workload.DefaultParams()
	p.N = n
	p.M, p.Unit = 4096, 32
	p.PS = 0.5
	p.PD = 0.3
	p.PE, p.PR = 0.2, 0.1
	p.TargetLoad = 0.9
	p.Seed = 1
	w, err := workload.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	w.Sort()
	s, err := New(Config{
		M: 4096, Unit: 32, Contiguous: true, Migrate: true,
		Scheduler: core.NewHybridLOS(7), ProcessECC: true, MaxECCPerJob: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ci := 0
	for _, j := range w.Jobs[:arrivals] {
		if err := s.Inject(j); err != nil {
			tb.Fatal(err)
		}
		for ; ci < len(w.Commands) && w.Commands[ci].Issue <= j.Arrival; ci++ {
			if err := s.InjectCommand(w.Commands[ci]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.RunUntil(j.Arrival); err != nil {
			tb.Fatal(err)
		}
	}
	return encodeSnapshot(tb, s)
}

// faultsSnapshot encodes a loaded Delayed-LOS session on a scattered
// machine with sampled node-group outages and daly checkpoints, cut
// mid-run: pending fail/repair events carry groups.
func faultsSnapshot(tb testing.TB) []byte {
	tb.Helper()
	p := workload.DefaultParams()
	p.N, p.Seed = 60, 3
	w, err := workload.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{
		M: 320, Unit: 32, Scheduler: core.NewDelayedLOS(5), ProcessECC: true,
		Faults: &FaultConfig{
			MTBF: 30000, MTTR: 2000, Seed: 9,
			Retry:      fault.RetryPolicy{Mode: fault.Requeue, MaxRetries: 2, Backoff: 20},
			Checkpoint: fault.CheckpointDaly, CheckpointCost: 30,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Load(w); err != nil {
		tb.Fatal(err)
	}
	if err := s.RunUntil(w.Jobs[len(w.Jobs)/2].Arrival); err != nil {
		tb.Fatal(err)
	}
	return encodeSnapshot(tb, s)
}

func encodeSnapshot(tb testing.TB, s *Session) []byte {
	tb.Helper()
	sn, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// canonicalSnapshots are encodings Encode wrote: the committed golden
// snapshot, an online-session-shaped one, and a faults + daly one.
func canonicalSnapshots(tb testing.TB) map[string][]byte {
	tb.Helper()
	golden, err := os.ReadFile("testdata/snapshot-v4.json")
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"golden": golden,
		"online": onlineSnapshot(tb, 120, 80),
		"faults": faultsSnapshot(tb),
	}
}

// snapshotVariants rewrites the golden snapshot into the forms the cursor
// decoder must hand to encoding/json, or reject as it does.
func snapshotVariants(golden []byte) map[string][]byte {
	g := string(golden)
	edit := func(old, new string) []byte {
		if !strings.Contains(g, old) {
			panic("golden snapshot has no " + old)
		}
		return []byte(strings.Replace(g, old, new, 1))
	}
	return map[string][]byte{
		"unknown keys":        edit(`"metrics":{`, `"extra":[1,{"a":"}]"}],"metrics":{"waits":[0,1.5],`),
		"folded jobs key":     edit(`"jobs":`, `"JOBS":`),
		"folded job field":    edit(`{"ID":1,`, `{"id":1,`),
		"folded per_job key":  edit(`"per_job":`, `"Per_Job":`),
		"folded metrics key":  edit(`"metrics":`, `"Metrics":`),
		"escaped jobs key":    edit(`"jobs":`, `"jo\u0062s":`),
		"escaped kind key":    edit(`{"kind":`, `{"\u006bind":`),
		"non-ascii key":       edit(`"jobs":`, `"jobſ":`),
		"exponent integer":    edit(`"Size":288`, `"Size":1e3`),
		"fraction integer":    edit(`"now":312302`, `"now":312302.0`),
		"fraction in job":     edit(`"Dur":14009`, `"Dur":14009.0`),
		"fraction in event":   edit(`"job":-1`, `"job":-1.0`),
		"negative zero":       edit(`"SCount":0`, `"SCount":-0`),
		"negative class":      edit(`"Class":1`, `"Class":-0`),
		"class overflow":      edit(`"Class":1`, `"Class":256`),
		"leading zero":        edit(`"Size":288`, `"Size":0288`),
		"duplicate jobs":      edit(`"jobs":`, `"jobs":[{"ID":7,"Size":3}],"jobs":`),
		"duplicate metrics":   edit(`"metrics":`, `"metrics":{"m":1},"metrics":`),
		"duplicate per_job":   edit(`"per_job":`, `"per_job":[],"per_job":`),
		"null jobs":           []byte(strings.Replace(g, g[strings.Index(g, `"jobs":`):strings.Index(g, `,"batch":`)], `"jobs":null`, 1)),
		"null groups":         edit(`"groups":[`, `"groups":null,"x":[`),
		"empty groups":        edit(`"groups":[`, `"groups":[],"x":[`),
		"null metrics":        []byte(strings.Replace(g, g[strings.Index(g, `"metrics":`):strings.Index(g, `,"ecc":`)], `"metrics":null`, 1)),
		"whitespace":          edit(`"jobs":[{`, "\"jobs\" :\n[ {"),
		"trailing whitespace": []byte(g + " \t\r\n"),
		"trailing bytes":      []byte(g + `}{"version":3`),
		"truncated":           golden[:len(golden)/2],
		"control in kind":     edit(`{"kind":"`, "{\"kind\":\"\x01"),
		"wait exponent":       edit(`"wait":0}`, `"wait":2.5e-3}`),
		"wait overflow":       edit(`"wait":0}`, `"wait":1e999}`),
		"version 3":           edit(`"version":4`, `"version":3`),
		"not an object":       []byte(`[` + g + `]`),
		"null":                []byte(`null`),
		"empty":               nil,
	}
}

// checkDecodeMatchesReference decodes data through DecodeSnapshot (from a
// bytes.Buffer and from a plain reader) and through the reference decoder:
// all three must fail together or succeed with DeepEqual snapshots.
func checkDecodeMatchesReference(t *testing.T, data []byte) *Snapshot {
	t.Helper()
	want, werr := referenceDecodeSnapshot(bytes.NewReader(data))
	got, gerr := DecodeSnapshot(bytes.NewBuffer(append([]byte(nil), data...)))
	viaReader, rerr := DecodeSnapshot(bytes.NewReader(data))
	if (gerr == nil) != (werr == nil) || (rerr == nil) != (werr == nil) {
		t.Fatalf("acceptance differs: got %v, via reader %v, reference %v", gerr, rerr, werr)
	}
	if werr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(viaReader, want) {
		t.Fatalf("decoded snapshot differs from the reference's")
	}
	return got
}

func TestDecodeSnapshotMatchesReference(t *testing.T) {
	inputs := canonicalSnapshots(t)
	for name, data := range snapshotVariants(inputs["golden"]) {
		inputs[name] = data
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			checkDecodeMatchesReference(t, data)
		})
	}
}

// TestDecodeSnapshotCursorCoversEncode: on every encoding Encode writes,
// the cursor decodes all four hot arrays itself — none reaches
// encoding/json, which would cost the speed without failing a test.
func TestDecodeSnapshotCursorCoversEncode(t *testing.T) {
	for name, data := range canonicalSnapshots(t) {
		d := snapDecoder{data: data}
		if _, ok := d.decode(); !ok {
			t.Errorf("%s: cursor decoder declined an Encode output", name)
			continue
		}
		for _, key := range []string{`"jobs":`, `"events":`, `"per_job":`, `"busy_steps":`} {
			if bytes.Contains(d.rest, []byte(key)) {
				t.Errorf("%s: %s went to encoding/json", name, key)
			}
		}
	}
}

func TestSnapshotVersionErrorIs(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot-v4.json")
	if err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Replace(golden, []byte(`"version":4`), []byte(`"version":3`), 1)
	if _, err := DecodeSnapshot(bytes.NewReader(v3)); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("DecodeSnapshot of a version-3 snapshot: %v, want ErrSnapshotVersion", err)
	}
	s, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wl(batch(1, 64, 100, 0))); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sn.Version = 5
	r, err := New(Config{M: 320, Unit: 32, Scheduler: &sched.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(sn); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("Restore of a version-5 snapshot: %v, want ErrSnapshotVersion", err)
	}

	// Other decode errors are not version errors, and say where they are.
	bad := bytes.Replace(golden, []byte(`"Size":288`), []byte(`"Size":x`), 1)
	_, err = DecodeSnapshot(bytes.NewReader(bad))
	if err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	want := "engine: decoding snapshot: at byte " // the offset of the 'x'
	if off := bytes.Index(bad, []byte(`"Size":x`)) + len(`"Size":x`); !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), " "+strconv.Itoa(off)+":") {
		t.Errorf("corrupt snapshot error %q, want prefix %q and offset %d", err, want, off)
	}
}

// FuzzDecodeSnapshot is the cursor decoder's differential test: on any
// input DecodeSnapshot fails exactly when the reference decoder does, and
// otherwise returns a DeepEqual snapshot. Restoring what it decodes into a
// fresh session built from the snapshot's own settings must not panic
// (the named policy when the tests know it, else a policy-swap to EASY-D).
// Inputs whose machine or job IDs would size tables past 4096 groups or
// 1<<20 IDs are not restored, to bound the fuzzer's memory.
func FuzzDecodeSnapshot(f *testing.F) {
	inputs := canonicalSnapshots(f)
	for _, data := range inputs {
		f.Add(data)
	}
	for _, data := range snapshotVariants(inputs["golden"]) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sn := checkDecodeMatchesReference(t, data)
		if sn == nil || sn.Unit <= 0 || sn.M <= 0 || sn.M/sn.Unit > 4096 {
			return
		}
		for _, j := range sn.Jobs {
			if j.ID > 1<<20 {
				return
			}
		}
		for _, o := range sn.Machine.Owners {
			if o.JobID > 1<<20 {
				return
			}
		}
		cfg := sn.Config()
		if cfg.Scheduler = schedulerNamed(sn.Scheduler); cfg.Scheduler == nil {
			cfg.Scheduler = &sched.EASY{Ded: true}
		}
		s, err := New(cfg)
		if err != nil {
			return
		}
		_ = s.Restore(sn)
	})
}

// TestDecodeSnapshotReaderError: a reader that fails after the snapshot's
// last byte still yields the snapshot, as the streaming decoder's does; one
// that fails inside it yields the reader's error.
func TestDecodeSnapshotReaderError(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot-v4.json")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, n := range []int{len(golden), len(golden) / 2} {
		reader := func() io.Reader { return io.MultiReader(bytes.NewReader(golden[:n]), iotest.ErrReader(boom)) }
		_, werr := referenceDecodeSnapshot(reader())
		_, gerr := DecodeSnapshot(reader())
		if (gerr == nil) != (werr == nil) || werr != nil && !errors.Is(gerr, boom) {
			t.Errorf("%d of %d bytes: got %v, reference %v", n, len(golden), gerr, werr)
		}
	}
}

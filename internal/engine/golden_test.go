package engine_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	es "elastisched"
)

// goldenScenario is the run behind testdata/snapshot-v4.json: EASY-DE-M
// on a contiguous 320-processor machine with migration, ECC processing,
// malleable jobs, sampled node-group faults and daly checkpoints.
func goldenScenario(t *testing.T) (*es.Workload, es.Options) {
	t.Helper()
	p := es.DefaultWorkloadParams()
	p.Seed, p.N = 11, 80
	p.PD, p.PE, p.PR, p.PM = 0.1, 0.2, 0.1, 0.4
	p.TargetLoad = 0.9
	w, err := es.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	return w, es.Options{
		M: 320, Unit: 32, MaxECCPerJob: 2,
		Contiguous: true, Migrate: true,
		Malleable: true, ResizeOverhead: 5,
		Faults: &es.FaultConfig{
			MTBF: 20000, MTTR: 1500, Seed: 5,
			Retry:      es.RetryPolicy{Mode: es.Requeue, MaxRetries: 3, Backoff: 30},
			Checkpoint: es.CheckpointDaly, CheckpointCost: 40,
		},
	}
}

// TestGoldenSnapshotV4 pins the version-4 wire format against a snapshot
// written by an earlier encoder: goldenScenario's session, captured at
// t=312302 with two jobs running (one malleable), pending checkpoint,
// command and fault events, and ECC state. It must decode, re-encode
// byte-identically, and resume to the uninterrupted run's Result.
func TestGoldenSnapshotV4(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot-v4.json")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := es.DecodeSessionSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Contiguous || !sn.Migrate || !sn.ProcessECC || !sn.Malleable || sn.Checkpoint != "daly" || sn.ECC == nil {
		t.Fatalf("golden snapshot lost part of its scenario: %+v", sn.Settings)
	}
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("re-encoded golden snapshot differs from the committed bytes")
	}

	w, opt := goldenScenario(t)
	want, err := es.Simulate(w, "EASY-DE-M", opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := es.ResumeSnapshot(sn, es.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed golden run diverged:\ngot:  %+v\nwant: %+v", got.Summary, want.Summary)
	}
}

package sched

import "testing"

func TestEASYStartsInOrderWhileFitting(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addBatch(1, 128, 100)
	h.addBatch(2, 128, 100)
	h.addBatch(3, 64, 100)
	h.cycle(&EASY{})
	h.wantStarted(1, 2, 3)
}

func TestEASYHeadBlocksFIFOWithoutBackfillRoom(t *testing.T) {
	// Running job holds 288 until t=100. Head needs 64 (blocked). The next
	// job (32, dur 200) would run past t=100 and delay the head's
	// reservation (at t=100 free is 32+288=320, head takes 64, extra 256...
	// wait: extra is large, so it backfills). Use a tighter scenario:
	// running 288 ends t=100; head 320 reserves t=100 with extra 0; job 2
	// (32, dur 200) runs past the shadow and exceeds extra -> must wait.
	h := newHarness(t, 320, 32)
	h.addRunning(9, 288, 100)
	h.addBatch(1, 320, 100)
	h.addBatch(2, 32, 200)
	h.cycle(&EASY{})
	h.wantStarted() // nothing can move
}

func TestEASYBackfillsShortJob(t *testing.T) {
	// Same as above but job 2 finishes before the shadow time: backfill.
	h := newHarness(t, 320, 32)
	h.addRunning(9, 288, 100)
	h.addBatch(1, 320, 100)
	h.addBatch(2, 32, 50) // ends at 50 < 100
	h.cycle(&EASY{})
	h.wantStarted(2)
}

func TestEASYBackfillsIntoExtraCapacity(t *testing.T) {
	// Running 160 ends t=100. Head needs 320: shadow t=100, extra = 0.
	// Running leaves 160 free now; job 2 (96, long) fits now and...
	// extra = free_at_shadow - head = (160+160) - 320 = 0, so a long job
	// cannot backfill; a short one can.
	h := newHarness(t, 320, 32)
	h.addRunning(9, 160, 100)
	h.addBatch(1, 320, 500)
	h.addBatch(2, 96, 1000) // long: would delay head
	h.addBatch(3, 96, 50)   // short: fine
	h.cycle(&EASY{})
	h.wantStarted(3)
}

func TestEASYBackfillRespectsDecrementedExtra(t *testing.T) {
	// Head 256 blocked until the 128-job ends at t=100 (then free =
	// 64+128+128 = 320...). Construct: running A=128 ends 100, B=128 ends
	// 300. free = 64. Head 256: cumulative release: 64+128=192 at t=100,
	// +128=320 at t=300 -> shadow t=300, extra = 320-256 = 64.
	// Job2 (64, dur 1000) backfills into extra, exhausting it.
	// Job3 (64, dur 1000) must then wait even though it fits now... but
	// after job2 starts free = 0, so it cannot fit anyway. Make machine
	// bigger via smaller head: use extra-tracking directly:
	h := newHarness(t, 320, 32)
	h.addRunning(8, 96, 100)
	h.addRunning(9, 96, 300)
	// free = 128. Head 224: release 96 at 100 -> 224 cumulative = 128+96 =
	// 224 >= 224, shadow t=100, extra = 224-224 = 0.
	h.addBatch(1, 224, 500)
	h.addBatch(2, 64, 50)  // ends before shadow: ok
	h.addBatch(3, 64, 500) // would consume extra 0: blocked
	h.cycle(&EASY{})
	h.wantStarted(2)
}

func TestEASYDMovesDueDedicatedToHead(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addBatch(1, 320, 100) // head hog, does not fit alongside dedicated
	d := h.addDed(2, 64, 100, 50)
	h.now = 50
	h.addRunning(9, 288, 200)
	h.cycle(&EASY{Ded: true})
	// Neither fits (free 32), but the dedicated job must now sit at the
	// batch head.
	if h.batch.Head() != d {
		t.Fatal("due dedicated job not at batch head")
	}
}

func TestEASYDProtectsFutureDedicated(t *testing.T) {
	// Free machine. Dedicated job needs the whole machine at t=100. A long
	// batch job would still be running then: must not start. A short one
	// may.
	h := newHarness(t, 320, 32)
	h.addDed(1, 320, 100, 100)
	h.addBatch(2, 64, 500) // runs past t=100
	h.addBatch(3, 64, 50)  // done before t=100
	h.cycle(&EASY{Ded: true})
	h.wantStartedSet(3)
}

func TestEASYDAllowsBatchWithinDedicatedSpare(t *testing.T) {
	// Dedicated needs 96 at t=100; machine idle, so 224 spare remains at
	// the freeze: long batch jobs up to 224 may start now.
	h := newHarness(t, 320, 32)
	h.addDed(1, 96, 100, 100)
	h.addBatch(2, 128, 10000)
	h.addBatch(3, 96, 10000)
	h.addBatch(4, 64, 10000) // 128+96+64 = 288 > 224: must wait
	h.cycle(&EASY{Ded: true})
	h.wantStartedSet(2, 3)
}

func TestEASYDStartsDueDedicatedImmediately(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addDed(1, 96, 100, 30)
	h.now = 30
	h.cycle(&EASY{Ded: true})
	h.wantStarted(1)
}

func TestEASYPlainIgnoresDedicatedQueue(t *testing.T) {
	e := &EASY{}
	if e.Heterogeneous() {
		t.Error("plain EASY should be batch-only")
	}
	if e.Name() != "EASY" {
		t.Errorf("name %q", e.Name())
	}
	d := &EASY{Ded: true}
	if !d.Heterogeneous() || d.Name() != "EASY-D" {
		t.Error("EASY-D flags wrong")
	}
}

func TestEASYEmptyQueueNoop(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.cycle(&EASY{})
	h.wantStarted()
}

func TestEASYHeadLargerThanMachineStalls(t *testing.T) {
	// Prevented by validation, but the scheduler must not panic or spin.
	h := newHarness(t, 320, 32)
	j := h.addBatch(1, 352, 100)
	_ = j
	h.cycle(&EASY{})
	h.wantStarted()
}

// TestEASYNoFitGateSettles checks the no-fit gate: when the smallest queued
// job exceeds the free capacity, Phase 2 returns without a backfill scan
// and still settles, so the next cycle is skipped until a delta arrives.
func TestEASYNoFitGateSettles(t *testing.T) {
	h := newHarness(t, 320, 32)
	h.addRunning(9, 256, 100)
	h.addBatch(1, 128, 100)
	h.addBatch(2, 96, 10)
	h.addBatch(3, 160, 10)
	if min, free := h.batch.MinSize(), h.mach.Free(); min <= free {
		t.Fatalf("setup: min queued size %d fits free %d", min, free)
	}
	e := &EASY{}
	e.ResetDeltas()
	c := h.ctx()
	e.Schedule(c)
	if c.Progress || !e.settled {
		t.Fatalf("gated pass: progress %v, settled %v; want no progress, settled", c.Progress, e.settled)
	}
	if !e.canSkip(h.ctx()) {
		t.Fatal("cycle after a settled gated pass is not skipped")
	}

	// A finish unsettles; with 128 free the head starts and the next job
	// (96) no longer fits the 0 left, so the pass that started the head
	// gates without settling, and the verification pass settles.
	h.now = 100
	h.active.Remove(h.active.Find(9))
	if err := h.mach.Release(9); err != nil {
		t.Fatal(err)
	}
	h.addRunning(8, 192, 500)
	e.JobFinished(nil, 100)
	c = h.ctx()
	e.Schedule(c)
	if !c.Progress || e.settled {
		t.Fatalf("starting pass: progress %v, settled %v; want progress, unsettled", c.Progress, e.settled)
	}
	h.wantStarted(1)
	c = h.ctx()
	e.Schedule(c)
	if c.Progress || !e.settled {
		t.Fatalf("verification pass: progress %v, settled %v; want no progress, settled", c.Progress, e.settled)
	}
}

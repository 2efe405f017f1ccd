package core

import (
	"math/rand"
	"testing"

	"elastisched/internal/job"
)

func randJobs(n int, r *rand.Rand) []*job.Job {
	out := make([]*job.Job, n)
	for i := range out {
		out[i] = &job.Job{
			ID:       i + 1,
			Size:     32 * (1 + r.Intn(10)),
			Dur:      int64(1 + r.Intn(10000)),
			ReqStart: -1,
		}
	}
	return out
}

// BenchmarkBasicDP measures one utilization-maximizing knapsack over the
// LOS paper's 50-job lookahead window on the 320-processor machine. The
// window is identical every iteration — the repeated-window (memo-hit)
// case, i.e. consecutive scheduling instants with an unchanged waiting
// queue. The steady state must allocate nothing.
func BenchmarkBasicDP(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cands := randJobs(50, r)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BasicDP(cands, 320, &s)
	}
}

// BenchmarkBasicDPCold measures the DP itself: alternating between two
// windows defeats the cycle memo, so every call re-solves the knapsack.
func BenchmarkBasicDPCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BasicDP(windows[i&1], 320, &s)
	}
}

// BenchmarkReservationDP measures the two-constraint knapsack (quantized
// to 32-processor node groups) on the repeated-window (memo-hit) case.
func BenchmarkReservationDP(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cands := randJobs(50, r)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(cands, 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPCold measures the general two-dimensional program
// with the memo defeated: both constraints bind (durations straddle the
// freeze end), so no collapse applies.
func BenchmarkReservationDPCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPCollapseSlackFreeze measures the dimension
// collapse when every candidate finishes before the freeze end (frenum
// all zero): the program degenerates to a single knapsack over m. The
// memo is defeated to time the collapse itself.
func BenchmarkReservationDPCollapseSlackFreeze(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	for _, w := range windows {
		for _, j := range w {
			j.Dur = int64(1 + r.Intn(100)) // all finish before fret
		}
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPCollapseAllFull measures the collapse when every
// candidate still runs at the freeze end (frenum = size): one knapsack
// over min(m, frec). The memo is defeated to time the collapse itself.
func BenchmarkReservationDPCollapseAllFull(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	windows := [2][]*job.Job{randJobs(50, r), randJobs(50, r)}
	for _, w := range windows {
		for _, j := range w {
			j.Dur = int64(5000 + r.Intn(5000)) // all still running at fret
		}
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 320, 160, 5000, 0, &s)
	}
}

// BenchmarkReservationDPUnquantized measures the SDSC-like worst case:
// unit-1 sizes blow the DP state up to ~50x129x129 (memo-hit case).
func BenchmarkReservationDPUnquantized(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cands := make([]*job.Job, 50)
	for i := range cands {
		size := 1 << r.Intn(7)
		if r.Float64() < 0.3 {
			size = 1 + r.Intn(127)
		}
		cands[i] = &job.Job{ID: i + 1, Size: size, Dur: int64(1 + r.Intn(10000)), ReqStart: -1}
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(cands, 127, 100, 5000, 0, &s)
	}
}

// BenchmarkReservationDPUnquantizedCold is the same worst case with the
// memo defeated: the full 2-D program over the irregular state space.
func BenchmarkReservationDPUnquantizedCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var windows [2][]*job.Job
	for w := range windows {
		cands := make([]*job.Job, 50)
		for i := range cands {
			size := 1 << r.Intn(7)
			if r.Float64() < 0.3 {
				size = 1 + r.Intn(127)
			}
			cands[i] = &job.Job{ID: i + 1, Size: size, Dur: int64(1 + r.Intn(10000)), ReqStart: -1}
		}
		windows[w] = cands
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservationDP(windows[i&1], 127, 100, 5000, 0, &s)
	}
}

// BenchmarkReservationDPWideCold measures the general two-constraint
// program at online-session width: 50 candidates of sizes 32·(1..64) on
// M = 4096 with frec = 2048, a 129x129 capacity grid. Durations straddle
// the freeze end so neither collapse applies, and two windows alternate to
// defeat the memo. The solver=reference twin runs the naive oracle on the
// same windows; cmd/benchgate pins the ratio between the two.
func BenchmarkReservationDPWideCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var windows [2][]*job.Job
	for w := range windows {
		cands := make([]*job.Job, 50)
		for i := range cands {
			cands[i] = &job.Job{ID: i + 1, Size: 32 * (1 + r.Intn(64)), Dur: int64(1 + r.Intn(10000)), ReqStart: -1}
		}
		windows[w] = cands
	}
	b.Run("solver=fast", func(b *testing.B) {
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReservationDP(windows[i&1], 4096, 2048, 5000, 0, &s)
		}
	})
	b.Run("solver=reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceReservationDP(windows[i&1], 4096, 2048, 5000, 0)
		}
	})
}

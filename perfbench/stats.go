package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (0 for none).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(math.Floor(pos))
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times a fixed CPU loop that uses no repository code (xorshift
// steps counted into a cache-resident table), best of three, in ms. It
// tells hosts apart; it is metadata, not a metric.
func calibrate() float64 {
	best := math.Inf(1)
	table := make([]uint32, 1<<14)
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 1<<23; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(1<<14-1)]++
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return best
}

// hostFingerprint describes the host a result was measured on.
func hostFingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s calibration_ms=%.3f",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), calibrate())
}

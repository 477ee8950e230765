package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// hostFingerprint describes the host a result was measured on: Go
// version, GOMAXPROCS, CPU count, CPU model and the rate of a fixed
// calibration loop. It is recorded beside every result and never
// gated; compare hosts by their calibration rates.
func hostFingerprint() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q calib_mops=%.1f",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), calibrate())
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports
// "unknown" where there is none.
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

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate returns the median rate, in millions of iterations per
// second, of three runs of a fixed xorshift loop.
func calibrate() float64 {
	const iters = 1 << 25
	rates := make([]float64, 3)
	for i := range rates {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for j := 0; j < iters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		rates[i] = iters / time.Since(t0).Seconds() / 1e6
		calibSink ^= x
	}
	return median(rates)
}

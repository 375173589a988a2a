package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile for it
// to be reported: a percentile read off fewer samples is one or two outliers,
// not a property of the population.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples. It
// refuses when fewer than minTail samples lie beyond the rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples is undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of a small set of repeated measurements
// (set-up times, span durations), averaging the two middle values of an even
// count. Unlike percentile it has no sample-count floor: it summarizes
// repetitions of one fixed step, not a latency population.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

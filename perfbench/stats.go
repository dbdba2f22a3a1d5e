package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a concurrent log-linear histogram over non-negative int64
// samples: exact below 32, then 16 buckets per power of two, so any
// quantile it reports is within 1/32 of the true sample. Per-layer call
// timings run to millions of samples per run, too many to keep.
type hist struct {
	cells [1024]atomic.Int64
	n     atomic.Int64
}

func histIndex(v int64) int {
	if v < 32 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 5
	return 32 + (shift-1)*16 + int(uint64(v)>>shift) - 16
}

// histMid is the midpoint of bucket i.
func histMid(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	shift := (i-32)/16 + 1
	lo := int64(16+(i-32)%16) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

func (h *hist) observe(v int64) {
	h.cells[histIndex(v)].Add(1)
	h.n.Add(1)
}

// quantile returns the q-quantile (0 with no samples).
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(n)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := range h.cells {
		cum += h.cells[i].Load()
		if cum >= need {
			return histMid(i)
		}
	}
	return histMid(len(h.cells) - 1)
}

// quantileSorted returns the q-quantile of ascending xs by the nearest-rank
// rule.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// failureUpperBound is the one-sided 95% Clopper–Pearson upper confidence
// bound on the failure probability after k failures in n attempts. It is
// never 0 (1-0.05^(1/n) ≈ 3/n at k = 0), so a run without failures still
// reports how few attempts backed that result, and a later failure moves
// it by a known step.
func failureUpperBound(k, n int) float64 {
	if n <= 0 {
		return 1
	}
	if k >= n {
		return 1
	}
	// P(X <= k | n, p) falls monotonically in p; bisect for 0.05.
	lo, hi := float64(k)/float64(n), 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if binomCDF(k, n, mid) > 0.05 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// binomCDF is P(X <= k) for X ~ Binomial(n, p), summed in log space.
func binomCDF(k, n int, p float64) float64 {
	lp, lq := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for i := 0; i <= k; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgR, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgR + float64(i)*lp + float64(n-i)*lq)
	}
	return sum
}

package main

import (
	"math"
	"testing"
)

func TestHistQuantileWithinBucketError(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.observe(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/32 {
			t.Errorf("quantile(%v) = %v, want %v within 1/32", q, got, want)
		}
	}
}

func TestHistBucketsAreOrdered(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 7 {
		i := histIndex(v)
		if i < prev || i >= len(hist{}.cells) {
			t.Fatalf("histIndex(%d) = %d after %d", v, i, prev)
		}
		if lo := histMid(i); math.Abs(lo-float64(v)) > float64(v)/32+0.5 {
			t.Fatalf("histMid(histIndex(%d)) = %v, too far off", v, lo)
		}
		prev = i
	}
}

func TestFailureUpperBound(t *testing.T) {
	// 1 - 0.05^(1/n) with no failures.
	if got, want := failureUpperBound(0, 1000), 1-math.Pow(0.05, 1.0/1000); math.Abs(got-want) > 1e-9 {
		t.Errorf("failureUpperBound(0, 1000) = %v, want %v", got, want)
	}
	prev := 0.0
	for k := 0; k <= 5; k++ {
		got := failureUpperBound(k, 1000)
		if got <= prev || got <= float64(k)/1000 {
			t.Errorf("failureUpperBound(%d, 1000) = %v, not above %v and the point estimate", k, got, prev)
		}
		prev = got
	}
}

func TestCoveredTakesTheUnionOfClippedChildren(t *testing.T) {
	p := span{start: 100, end: 200}
	children := []span{{start: 90, end: 120}, {start: 110, end: 130}, {start: 150, end: 160}, {start: 190, end: 250}}
	// [100,130) + [150,160) + [190,200) = 30 + 10 + 10
	if got := covered(p, children); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := covered(p, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestWindowedQuantileIsTheMedianOfWindows(t *testing.T) {
	windows := [][]float64{{1, 2, 3}, {10, 20, 30}, {5, 6, 7}}
	if got := windowedQuantile(windows, 0.5); got != 6 {
		t.Errorf("windowedQuantile = %v, want 6", got)
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestP95NeedsTwoHundredSamples(t *testing.T) {
	samples := make([]float64, minP95Samples-1)
	for i := range samples {
		samples[i] = float64(i)
	}
	if _, ok := p95(samples); ok {
		t.Fatalf("p95 reported from %d samples", len(samples))
	}
	samples = append(samples, float64(len(samples)))
	got, ok := p95(samples)
	if !ok {
		t.Fatalf("p95 withheld at %d samples", len(samples))
	}
	if want := 0.95 * 199; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p95 of 0..199 = %v, want %v", got, want)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single-sample quantile = %v", got)
	}
}

func TestFastQuartileIgnoresSlowRounds(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	withStalls := append(append([]float64(nil), steady...), 40, 35, 50) // three rounds hit by a neighbour
	a, b := fastQuartile(steady), fastQuartile(withStalls)
	if math.Abs(a-b)/a > 0.01 {
		t.Fatalf("fast quartile moved from %v to %v when slow rounds were added", a, b)
	}
	if med := median(withStalls); math.Abs(med-a)/a < 0.005 {
		t.Fatalf("test is vacuous: the median %v did not move either", med)
	}
}

func TestBracketAdjustsTowardNominal(t *testing.T) {
	nominal := time.Duration(refNominalMS * float64(time.Millisecond))
	slow := bracket{before: 2 * nominal, after: 2 * nominal}
	if f := slow.factor(); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("machine at half speed: factor %v, want 0.5", f)
	}
	mixed := bracket{before: nominal, after: 3 * nominal}
	if f := mixed.factor(); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("bracket uses the mean of its two runs: factor %v, want 0.5", f)
	}
}

func TestRefKernelIsDeterministicWork(t *testing.T) {
	a, b := newRefKernel(2, true), newRefKernel(2, true)
	a.run()
	b.run()
	if one, two := a.sink.Load(), b.sink.Load(); one != two || one == 0 {
		t.Fatalf("two runs of the kernel computed %d and %d", one, two)
	}
	// The gather must walk one cycle through every element, or it would sit
	// in a short loop that fits any cache.
	cycle, at, n := a.lanes[0].cycle, uint32(0), 0
	for {
		at = cycle[at]
		if n++; at == 0 || n > len(cycle) {
			break
		}
	}
	if n != len(cycle) {
		t.Fatalf("gather cycle closes after %d of %d elements", n, len(cycle))
	}
}

func TestQuartileSpreadMatchesPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}

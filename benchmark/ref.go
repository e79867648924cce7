package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference kernel is a fixed piece of CPU work that touches no engine
// code. The harness runs it before and after every round and every set-up; the
// ratio refNominalMS / measured says how much slower or faster the machine was
// during that bracket than on the calibration host, and every timing taken
// inside the bracket is multiplied by it. Interference from neighbours on a
// shared sandbox slows the kernel and the engine alike, so the adjusted numbers
// drift far less between invocations than the raw ones. The printed
// milliseconds are therefore "milliseconds on a machine that runs the reference
// kernel in refNominalMS", not raw wall clock.
//
// The kernel is a composite, because the engine is: a machine that slows
// branchy compute by a fifth can slow dependent memory loads by half. And it
// runs on as many goroutines at once as the workload has clients: the
// sandbox's two cores at times share one, which halves a two-client workload
// and leaves a one-client workload alone. Measured on the 2-core sandbox
// against the four workloads, a sorted merge alone left 9-15 % of run-to-run
// spread in the adjusted numbers and the composite 3-8 %. Each goroutine does,
// on data of its own:
//
//	refMerges sorted-merge intersections of two 256 Ki-element uint32 arrays
//	(branchy, streaming), refGatherSteps dependent loads through an 8 MiB
//	random cycle (memory latency), refAllocs small slices allocated and an
//	eighth of them kept (allocator, GC)
const (
	refElems       = 256 << 10
	refMerges      = 16
	refGatherElems = 2 << 20
	refGatherSteps = 500_000
	refAllocs      = 200_000
	// refNominalMS is what one kernel run took on the 2-core sandbox the
	// benchmark was calibrated on. Changing it rescales every reported time;
	// it is part of the benchmark's definition, like the workloads.
	refNominalMS = 100.0
)

// refLane is the data one goroutine of the kernel works on.
type refLane struct {
	a, b  []uint32 // sorted, for the merge
	cycle []uint32 // cycle[i] is the element after i on one random cycle through all
}

type refKernel struct {
	lanes                 []refLane
	merges, steps, allocs int
	sink                  atomic.Uint64
}

// newRefKernel fills the arrays from a fixed linear congruential sequence: the
// kernel's input never depends on the workload seed. The smoke path does a
// sixteenth of the work, which is as good a yardstick as a unit test needs.
func newRefKernel(threads int, smoke bool) *refKernel {
	k := &refKernel{lanes: make([]refLane, threads), merges: refMerges, steps: refGatherSteps, allocs: refAllocs}
	if smoke {
		k.merges, k.steps, k.allocs = refMerges/16, refGatherSteps/16, refAllocs/16
	}
	state := uint32(0x9e3779b9)
	next := func() uint32 {
		state = state*1664525 + 1013904223
		return state
	}
	sorted := func() []uint32 {
		dst := make([]uint32, refElems)
		var v uint32
		for i := range dst {
			v += 1 + next()>>30 // gaps of 1..4 keep the merge branches unpredictable
			dst[i] = v
		}
		return dst
	}
	for l := range k.lanes {
		order := make([]uint32, refGatherElems)
		for i := range order {
			order[i] = uint32(i)
		}
		for i := len(order) - 1; i > 0; i-- {
			j := int(uint64(next()) * uint64(i+1) >> 32)
			order[i], order[j] = order[j], order[i]
		}
		cycle := make([]uint32, refGatherElems)
		for i, v := range order {
			cycle[v] = order[(i+1)%len(order)]
		}
		k.lanes[l] = refLane{a: sorted(), b: sorted(), cycle: cycle}
	}
	return k
}

// run executes the kernel once, every lane on a goroutine of its own, and
// returns how long the slowest took.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for l := range k.lanes {
		wg.Add(1)
		go func(lane *refLane) {
			defer wg.Done()
			k.sink.Add(k.merge(lane) + k.gather(lane) + k.allocate())
		}(&k.lanes[l])
	}
	wg.Wait()
	return time.Since(start)
}

func (k *refKernel) merge(lane *refLane) uint64 {
	var common uint64
	for rep := 0; rep < k.merges; rep++ {
		a, b := lane.a, lane.b
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				common++
				i++
				j++
			}
		}
	}
	return common
}

func (k *refKernel) gather(lane *refLane) uint64 {
	var at uint32
	for i := 0; i < k.steps; i++ {
		at = lane.cycle[at]
	}
	return uint64(at)
}

func (k *refKernel) allocate() uint64 {
	var kept [][]uint32
	for i := 0; i < k.allocs; i++ {
		s := make([]uint32, 16+i%32)
		s[0] = uint32(i)
		if i%8 == 0 {
			kept = append(kept, s)
		}
	}
	return uint64(len(kept))
}

// bracket is the reference measurement around one timed interval.
type bracket struct{ before, after time.Duration }

// refMS is the bracket's reference time: the mean of the two runs.
func (b bracket) refMS() float64 {
	return float64(b.before+b.after) / 2 / float64(time.Millisecond)
}

// factor multiplies a raw timing taken inside the bracket into an adjusted one.
func (b bracket) factor() float64 { return refNominalMS / b.refMS() }

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted slice; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sortedCopy(v), 0.5)
}

// mean of a non-empty slice.
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// minP95Samples is the pooled sample count below which no 95th percentile is
// reported: with fewer than 200 samples fewer than 10 lie beyond it.
const minP95Samples = 200

// p95 returns the 95th percentile of the pooled samples, and false when there
// are too few of them to support one.
func p95(samples []float64) (float64, bool) {
	if len(samples) < minP95Samples {
		return 0, false
	}
	return quantile(sortedCopy(samples), 0.95), true
}

// fastQuartile aggregates per-round throughputs into one number: the 75th
// percentile, i.e. the boundary of the fastest quarter of rounds. Interference
// only ever slows a round, so the fast side of the distribution is the steady
// one; the maximum would be steadier still but rests on a single round.
func fastQuartile(perRound []float64) float64 {
	if len(perRound) == 0 {
		return 0
	}
	return quantile(sortedCopy(perRound), 0.75)
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with quartiles placed as Python's
// statistics.quantiles(v, n=4) places them (the "exclusive" method), which is
// how the benchmark's acceptance check computes a spread.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / quartile(2)
}

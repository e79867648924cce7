// Package metrics is a zero-dependency instrumentation layer: atomic
// counters and fixed-bucket latency histograms behind a registry that
// serves the Prometheus text exposition format. The hot paths
// (Counter.Inc, Histogram.Observe) are single atomic operations — no
// locks, no allocation — so metrics can sit on the executor's per-batch
// path; registration and scraping take a mutex but only touch family
// bookkeeping, never the sample atomics.
//
// The package deliberately implements only what the repo needs: int64
// counters, cumulative-bucket histograms, one-or-two-label vectors, and
// closure-backed "func" counters and gauges for values that are already
// counted elsewhere (plan cache stats, live-store epochs). No push
// gateways, no summaries, no exemplars.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram layout in seconds:
// roughly exponential from 100µs to 10s, matching the range between a
// cached count on a warm plan and a cold worst-case-optimal join on the
// full graph.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//gf:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// bucketed by upper bound (v <= bound, Prometheus `le` semantics) with
// an implicit +Inf bucket; counts per bucket and the float sum are
// atomics, so Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64 // sorted finite upper bounds
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given finite upper bounds
// (seconds for latency histograms). Bounds must be strictly
// increasing; NewHistogram panics otherwise since the layout is a
// compile-time decision. A trailing +Inf bound is implicit (and
// stripped if passed).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		bounds = bounds[:len(bounds)-1]
	}
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one finite bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// Observe records one sample.
//
//gf:noalloc
func (h *Histogram) Observe(v float64) {
	// Branchless-ish linear scan beats sort.SearchFloat64s for the
	// typical 16-bucket layout and avoids the func-value indirection.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
//
//gf:noalloc
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot captures a consistent-enough view for quantile math and
// exposition: per-bucket counts (non-cumulative), total count and sum.
// Concurrent Observes may land between bucket reads; scrapes tolerate
// that the same way Prometheus clients do.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// HistSnapshot is a point-in-time histogram state; Bounds aliases the
// histogram's immutable layout, Counts is per-bucket (the last entry is
// the +Inf bucket).
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// QuantileFromBuckets extracts the q-quantile (0 < q <= 1) of a
// histogram by linear interpolation inside the straddling bucket,
// prometheus histogram_quantile-style: samples in the +Inf bucket clamp
// to the highest finite bound, and an empty histogram gives 0. bounds
// are the finite upper bounds; counts is per-bucket (len(bounds)+1,
// last = +Inf overflow). The benchmark binary (benchmark/traced.go) is
// what reaches it: it rebuilds bucket layouts from scraped exposition
// text and takes their percentiles here.
func QuantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		within := rank - float64(cum-c)
		return lo + (hi-lo)*(within/float64(c))
	}
	return bounds[len(bounds)-1]
}

// CounterVec is a family of counters keyed by label values (e.g. one
// per endpoint). Children are created on first use under a lock; the
// returned *Counter should be cached by hot-path callers.
type CounterVec struct {
	fam *family
}

// With returns the child for the given label values (one per declared
// label key, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.fam.child(values)
	return s.counter
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	fam    *family
	bounds []float64
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.fam.child(values)
	return s.hist
}

// series is one exposed time series: a fixed label-value tuple plus
// exactly one sample source.
type series struct {
	labelValues []string
	counter     *Counter
	hist        *Histogram
	fn          func() float64 // func-backed counter or gauge
}

// value reads the series' scalar sample (not used for histograms).
func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return float64(s.counter.Value())
	}
	return 0
}

// family is one metric name: help text, type, label schema and its
// series set.
type family struct {
	name      string
	help      string
	typ       string // "counter", "gauge", "histogram"
	labelKeys []string
	bounds    []float64 // histogram families only

	mu     sync.RWMutex
	series []*series
	byKey  map[string]*series
}

// child returns (creating if needed) the series for the label tuple.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labelKeys) {
		panic("metrics: " + f.name + ": wrong label value count")
	}
	key := joinKey(values)
	f.mu.RLock()
	s := f.byKey[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.byKey[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		s.counter = &Counter{}
	case "histogram":
		s.hist = NewHistogram(f.bounds)
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// sortedSeries snapshots the series list ordered by label values for
// deterministic exposition.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, len(f.series))
	copy(out, f.series)
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return joinKey(out[i].labelValues) < joinKey(out[j].labelValues)
	})
	return out
}

func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	k := values[0]
	for _, v := range values[1:] {
		k += "\x00" + v
	}
	return k
}

package metrics

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGauge: a counter counts its increments, and a func gauge
// reads its closure at every scrape.
func TestCounterGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	reg := NewRegistry()
	depth := 2.5
	reg.GaugeFunc("test_depth", "", func() float64 { return depth })
	for _, want := range []string{"test_depth 2.5\n", "test_depth 1.25\n"} {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("scrape %q lacks %q", buf.String(), want)
		}
		depth = 1.25
	}
}

// TestHistogramBucketBoundaries pins the `le` semantics: an observation
// exactly at a bound lands in that bound's bucket (v <= bound), just
// above it lands in the next, and anything beyond the last finite bound
// lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	h.Observe(1)                    // bucket le=1
	h.Observe(math.Nextafter(1, 2)) // bucket le=2
	h.Observe(2)                    // bucket le=2
	h.Observe(5)                    // bucket le=5
	h.Observe(5.0001)               // +Inf
	h.Observe(-3)                   // le=1 (below the first bound)
	s := h.Snapshot()
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if got, want := s.Sum, 1+math.Nextafter(1, 2)+2+5+5.0001-3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	// 100 samples uniformly in (0.01, 0.1]: the p50 interpolates to the
	// middle of that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.0999)
	}
	s := h.Snapshot()
	if p50 := QuantileFromBuckets(s.Bounds, s.Counts, 0.5); p50 < 0.01 || p50 > 0.1 {
		t.Fatalf("p50 = %g, want within (0.01, 0.1]", p50)
	}
	// Interpolation: all mass in one bucket, p50 at its midpoint.
	if p50 := QuantileFromBuckets(s.Bounds, s.Counts, 0.5); math.Abs(p50-0.055) > 1e-9 {
		t.Fatalf("p50 = %g, want 0.055 (linear midpoint of (0.01,0.1])", p50)
	}
	// Everything in +Inf clamps to the largest finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	s2 := h2.Snapshot()
	if q := QuantileFromBuckets(s2.Bounds, s2.Counts, 0.99); q != 2 {
		t.Fatalf("+Inf quantile = %g, want clamp to 2", q)
	}
	// Empty histogram.
	if q := QuantileFromBuckets([]float64{1}, make([]int64, 2), 0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(DefBuckets)
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-0.003) > 1e-12 {
		t.Fatalf("sum = %g, want 0.003", s.Sum)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// while a scraper concurrently snapshots and serializes it; run under
// -race this is the data-race guard for the lock-free hot path.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hammer_seconds", "race test histogram", []float64{0.001, 0.01, 0.1, 1})
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WriteText(&buf); err != nil {
				t.Error(err)
				return
			}
			if errs := Lint(bytes.NewReader(buf.Bytes())); len(errs) > 0 {
				t.Errorf("mid-scrape lint: %v", errs)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%200) / 1000)
			}
		}(w)
	}
	// Stop the scraper once every writer's final count is visible.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for h.Snapshot().Count < writers*perW {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := h.Snapshot().Count; got != writers*perW {
		t.Fatalf("count = %d, want %d", got, writers*perW)
	}
}

// TestExpositionGolden locks the text format against a checked-in
// golden file — counters, gauges, func series with labels, and a
// histogram with deterministic observations.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("test_requests_total", "Requests served.").With()
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	reg.GaugeFunc("test_queue_depth", "Current queue depth.", func() float64 { return 2 })
	reg.GaugeFunc("test_stage_seconds_total", "Per-stage time.", func() float64 { return 1.5 }, "stage", "scan")
	reg.GaugeFunc("test_stage_seconds_total", "Per-stage time.", func() float64 { return 0.25 }, "stage", "probe")
	h := reg.Histogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)
	hv := reg.HistogramVec("test_endpoint_seconds", "Per-endpoint latency.", []float64{0.1, 1}, "endpoint")
	hv.With("/query").Observe(0.02)
	hv.With("/ingest").Observe(0.5)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.prom")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// The golden output must also satisfy our own linter.
	if errs := Lint(bytes.NewReader(buf.Bytes())); len(errs) > 0 {
		t.Fatalf("golden exposition fails lint: %v", errs)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("test_labeled_total", "", "path")
	cv.With(`a"b\c` + "\n").Inc()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c\n"`) {
		t.Fatalf("unescaped label in %q", buf.String())
	}
	fams, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, f := range fams {
		if f.Name == "test_labeled_total" && len(f.Series) == 1 {
			got = f.Series[0].Labels["path"]
		}
	}
	if got != `a"b\c`+"\n" {
		t.Fatalf("round-tripped label = %q", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	reg.CounterVec("dup_total", "")
}

func TestLintCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			"duplicate family",
			"# TYPE a_total counter\na_total 1\n# TYPE a_total counter\na_total 2\n",
			"", // parser folds repeated TYPE into one family; duplicate samples are legal-ish — the real dup case is two TYPE values
		},
		{
			"conflicting type",
			"# TYPE a_total counter\n# TYPE a_total gauge\n",
			"conflicting TYPE",
		},
		{
			"non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative",
		},
		{
			"missing inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
			"missing +Inf",
		},
		{
			"count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
			"_count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := Lint(strings.NewReader(tc.text))
			if tc.want == "" {
				if len(errs) > 0 {
					t.Fatalf("unexpected lint errors: %v", errs)
				}
				return
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("lint errors %v missing %q", errs, tc.want)
			}
		})
	}
}

// TestParsedBuckets round-trips a histogram through exposition text and
// back into quantile math — the path benchmark/traced.go uses to compute
// server-side percentiles from a scraped /metrics exposition.
func TestParsedBuckets(t *testing.T) {
	reg := NewRegistry()
	hv := reg.HistogramVec("rt_seconds", "", []float64{0.01, 0.1, 1}, "endpoint")
	for i := 0; i < 90; i++ {
		hv.With("/query").Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		hv.With("/query").Observe(0.5)
	}
	hv.With("/ingest").Observe(0.002)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fam *ParsedFamily
	for _, f := range fams {
		if f.Name == "rt_seconds" {
			fam = f
		}
	}
	if fam == nil {
		t.Fatal("rt_seconds family not parsed")
	}
	bounds, counts, ok := fam.Buckets(map[string]string{"endpoint": "/query"})
	if !ok {
		t.Fatal("no /query buckets")
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	p50 := QuantileFromBuckets(bounds, counts, 0.5)
	if p50 <= 0.01 || p50 > 0.1 {
		t.Fatalf("scraped p50 = %g, want in (0.01, 0.1]", p50)
	}
	p99 := QuantileFromBuckets(bounds, counts, 0.99)
	if p99 <= 0.1 || p99 > 1 {
		t.Fatalf("scraped p99 = %g, want in (0.1, 1]", p99)
	}
}

// TestZeroAllocs guards the instrument hot paths: every mutation method
// that sits on the executor's per-batch or per-query path must not
// allocate. The table mirrors the //gf:noalloc annotations gfvet checks
// statically; CI runs it via the shared `go test -run 'ZeroAllocs'`
// step.
func TestZeroAllocs(t *testing.T) {
	h := NewHistogram(DefBuckets)
	var c Counter
	cases := []struct {
		name string
		body func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(3 * time.Millisecond) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(100, tc.body); a != 0 {
				t.Fatalf("%s allocates %v per run, want 0", tc.name, a)
			}
		})
	}
}

package metrics

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// famModel is the reference model of one randomly generated family: what
// the registry was told, against which the scraped exposition is judged.
type famModel struct {
	typ    string
	keys   []string
	series []seriesModel
	bounds []float64 // histograms only
}

type seriesModel struct {
	values []string
	value  float64   // counter/gauge/func families
	obs    []float64 // histogram families
}

// labelWords includes every escape the writer handles, so the round trip
// covers the quoting path, not just clean identifiers.
var labelWords = []string{
	"plain", "x", "with space", `back\slash`, `qu"ote`, "new\nline", "",
	"trailing\\", "unicode-β",
}

func randWord(rng *rand.Rand) string {
	return labelWords[rng.Intn(len(labelWords))]
}

// buildRandomRegistry assembles a registry through every registration
// surface (plain, vec, func, pre-built histogram) with random shapes and
// values, returning the reference model keyed by family name.
func buildRandomRegistry(rng *rand.Rand) (*Registry, map[string]*famModel) {
	r := NewRegistry()
	model := make(map[string]*famModel)

	randBounds := func() []float64 {
		n := 1 + rng.Intn(5)
		bounds := make([]float64, 0, n)
		b := rng.Float64() + 0.01
		for i := 0; i < n; i++ {
			bounds = append(bounds, b)
			b += rng.Float64() + 0.01
		}
		return bounds
	}
	randObs := func(bounds []float64) []float64 {
		obs := make([]float64, rng.Intn(40))
		hi := bounds[len(bounds)-1] * 1.5
		for i := range obs {
			obs[i] = rng.Float64() * hi
		}
		return obs
	}
	randKeys := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		return keys
	}
	// Distinct label tuples for one vec family: vary the first value by
	// index so two tuples never collide regardless of the random words.
	randTuples := func(nKeys int) [][]string {
		tuples := make([][]string, 1+rng.Intn(3))
		for i := range tuples {
			vals := make([]string, nKeys)
			vals[0] = fmt.Sprintf("s%d-%s", i, randWord(rng))
			for j := 1; j < nKeys; j++ {
				vals[j] = randWord(rng)
			}
			tuples[i] = vals
		}
		return tuples
	}

	nFam := 1 + rng.Intn(8)
	for i := 0; i < nFam; i++ {
		switch rng.Intn(7) {
		case 0: // plain counter
			name := fmt.Sprintf("rt_c%d_total", i)
			c := r.CounterVec(name, "random counter").With()
			v := int64(rng.Intn(1000))
			for n := int64(0); n < v; n++ {
				c.Inc()
			}
			model[name] = &famModel{typ: "counter", series: []seriesModel{{value: float64(v)}}}
		case 1: // plain gauge, negative and fractional values included
			name := fmt.Sprintf("rt_g%d", i)
			v := (rng.Float64() - 0.5) * 2000
			r.GaugeFunc(name, "random gauge", func() float64 { return v })
			model[name] = &famModel{typ: "gauge", series: []seriesModel{{value: v}}}
		case 2: // plain histogram
			name := fmt.Sprintf("rt_h%d_seconds", i)
			bounds := randBounds()
			h := r.Histogram(name, "random histogram", bounds)
			obs := randObs(bounds)
			for _, v := range obs {
				h.Observe(v)
			}
			model[name] = &famModel{typ: "histogram", bounds: bounds, series: []seriesModel{{obs: obs}}}
		case 3: // counter vec
			name := fmt.Sprintf("rt_cv%d_total", i)
			keys := randKeys(1 + rng.Intn(3))
			vec := r.CounterVec(name, "random counter vec", keys...)
			fm := &famModel{typ: "counter", keys: keys}
			for _, vals := range randTuples(len(keys)) {
				v := int64(rng.Intn(1000))
				c := vec.With(vals...)
				for n := int64(0); n < v; n++ {
					c.Inc()
				}
				fm.series = append(fm.series, seriesModel{values: vals, value: float64(v)})
			}
			model[name] = fm
		case 4: // histogram vec
			name := fmt.Sprintf("rt_hv%d_seconds", i)
			keys := randKeys(1 + rng.Intn(2))
			bounds := randBounds()
			vec := r.HistogramVec(name, "random histogram vec", bounds, keys...)
			fm := &famModel{typ: "histogram", keys: keys, bounds: bounds}
			for _, vals := range randTuples(len(keys)) {
				obs := randObs(bounds)
				h := vec.With(vals...)
				for _, v := range obs {
					h.Observe(v)
				}
				fm.series = append(fm.series, seriesModel{values: vals, obs: obs})
			}
			model[name] = fm
		case 5: // func series sharing one family
			name := fmt.Sprintf("rt_f%d_total", i)
			fm := &famModel{typ: "counter", keys: []string{"stage"}}
			for s := 0; s < 1+rng.Intn(3); s++ {
				v := float64(rng.Intn(500))
				r.CounterFunc(name, "random func counter", func() float64 { return v }, "stage", fmt.Sprintf("st%d", s))
				fm.series = append(fm.series, seriesModel{values: []string{fmt.Sprintf("st%d", s)}, value: v})
			}
			model[name] = fm
		case 6: // pre-built histogram registered after the fact
			name := fmt.Sprintf("rt_rh%d_seconds", i)
			bounds := randBounds()
			h := NewHistogram(bounds)
			obs := randObs(bounds)
			for _, v := range obs {
				h.Observe(v)
			}
			r.RegisterHistogram(name, "random pre-built histogram", h)
			model[name] = &famModel{typ: "histogram", bounds: bounds, series: []seriesModel{{obs: obs}}}
		}
	}
	return r, model
}

// refBuckets mirrors Histogram.Observe's bucketing rule (first bound
// with v <= bound, implicit +Inf last) to produce the expected
// de-cumulated counts, sum and total for a series' observations.
func refBuckets(bounds []float64, obs []float64) (counts []int64, sum float64, total int64) {
	counts = make([]int64, len(bounds)+1)
	for _, v := range obs {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		counts[i]++
		sum += v
	}
	return counts, sum, int64(len(obs))
}

// matchSeries finds the parsed series whose labels equal keys/values
// exactly (ignoring parser-internal bookkeeping labels) and carries the
// given __suffix__ role ("" for plain samples).
func matchSeries(f *ParsedFamily, keys, values []string, suffix string) (ParsedSeries, bool) {
	for _, s := range f.Series {
		if s.Labels["__suffix__"] != suffix {
			continue
		}
		ok := true
		for i, k := range keys {
			if s.Labels[k] != values[i] {
				ok = false
				break
			}
		}
		// Plain families must not carry stray labels beyond the schema
		// (histogram series legitimately add le and __suffix__).
		if suffix == "" {
			extra := 0
			if _, has := s.Labels["__suffix__"]; has {
				extra++
			}
			if len(s.Labels) != len(keys)+extra {
				ok = false
			}
		}
		if ok {
			return s, true
		}
	}
	return ParsedSeries{}, false
}

// TestWriteParseRoundTrip is the exposition property test: for
// randomized registries covering every registration surface, label
// escapes, negative and fractional values, WriteText followed by
// ParseText must reproduce every family (name and type), every series
// (exact label tuple, exact value — the writer formats floats with
// round-trip precision) and every histogram's bounds, de-cumulated
// bucket counts, sum and count.
func TestWriteParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r, model := buildRandomRegistry(rng)

			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			text := buf.String()
			fams, err := ParseText(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ParseText: %v\nexposition:\n%s", err, text)
			}
			byName := make(map[string]*ParsedFamily, len(fams))
			for _, f := range fams {
				byName[f.Name] = f
			}
			if len(byName) != len(model) {
				t.Errorf("parsed %d families, registered %d", len(byName), len(model))
			}

			for name, want := range model {
				f := byName[name]
				if f == nil {
					t.Errorf("family %s missing from scrape", name)
					continue
				}
				if f.Type != want.typ {
					t.Errorf("%s: type = %q, want %q", name, f.Type, want.typ)
				}
				for _, sm := range want.series {
					if want.typ == "histogram" {
						checkHistogramSeries(t, name, f, want, sm)
						continue
					}
					got, ok := matchSeries(f, want.keys, sm.values, "")
					if !ok {
						t.Errorf("%s: series %v missing from scrape", name, sm.values)
						continue
					}
					if got.Value != sm.value {
						t.Errorf("%s%v: value = %v, want %v", name, sm.values, got.Value, sm.value)
					}
				}
			}
		})
	}
}

func checkHistogramSeries(t *testing.T, name string, f *ParsedFamily, want *famModel, sm seriesModel) {
	t.Helper()
	wantCounts, wantSum, wantTotal := refBuckets(want.bounds, sm.obs)
	sel := make(map[string]string, len(want.keys))
	for i, k := range want.keys {
		sel[k] = sm.values[i]
	}
	bounds, counts, ok := f.Buckets(sel)
	if !ok {
		t.Errorf("%s%v: no bucket series in scrape", name, sm.values)
		return
	}
	if len(bounds) != len(want.bounds) {
		t.Errorf("%s%v: %d bounds, want %d", name, sm.values, len(bounds), len(want.bounds))
		return
	}
	for i, b := range bounds {
		// formatValue emits shortest round-trip precision, so the parsed
		// bound is bit-identical to the registered one.
		if b != want.bounds[i] {
			t.Errorf("%s%v: bound[%d] = %v, want %v", name, sm.values, i, b, want.bounds[i])
		}
	}
	var gotTotal int64
	for i, c := range counts {
		gotTotal += c
		if c != wantCounts[i] {
			t.Errorf("%s%v: bucket[%d] = %d, want %d", name, sm.values, i, c, wantCounts[i])
		}
	}
	if gotTotal != wantTotal {
		t.Errorf("%s%v: bucket total = %d, want %d", name, sm.values, gotTotal, wantTotal)
	}
	if s, ok := matchSeries(f, want.keys, sm.values, "sum"); !ok {
		t.Errorf("%s%v: _sum series missing", name, sm.values)
	} else if math.Abs(s.Value-wantSum) > 1e-9*math.Max(1, math.Abs(wantSum)) {
		// Observe accumulates via CAS in observation order; single-threaded
		// that matches the reference fold, but allow float slack anyway.
		t.Errorf("%s%v: sum = %v, want %v", name, sm.values, s.Value, wantSum)
	}
	if s, ok := matchSeries(f, want.keys, sm.values, "count"); !ok {
		t.Errorf("%s%v: _count series missing", name, sm.values)
	} else if int64(s.Value) != wantTotal {
		t.Errorf("%s%v: count = %v, want %d", name, sm.values, s.Value, wantTotal)
	}
}

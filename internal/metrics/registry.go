package metrics

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and serves them in the Prometheus
// text exposition format. Registration happens at startup under a
// mutex; the sample reads at scrape time are plain atomic loads, so a
// scrape never blocks an Observe.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order; exposition sorts by name anyway
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Histogram registers and returns a label-less histogram over bounds
// (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.newFamily(name, help, "histogram", nil, bounds, false)
	return f.child(nil).hist
}

// RegisterHistogram adopts an externally owned histogram (e.g. the WAL
// fsync histogram, which lives in the wal package so observations work
// even when no registry is attached).
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	f := r.newFamily(name, help, "histogram", nil, h.bounds, false)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &series{hist: h}
	f.byKey[""] = s
	f.series = append(f.series, s)
}

// CounterVec registers a counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	f := r.newFamily(name, help, "counter", labelKeys, nil, false)
	return &CounterVec{fam: f}
}

// HistogramVec registers a histogram family with the given label keys
// and bounds (nil = DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.newFamily(name, help, "histogram", labelKeys, bounds, false)
	return &HistogramVec{fam: f, bounds: bounds}
}

// CounterFunc registers a closure-backed counter series. labelPairs is
// an alternating key, value list; repeated registrations under the
// same name must use the same label keys and distinct values — that is
// how multi-series func families (e.g. per-stage exec seconds) are
// assembled.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, "counter", fn, labelPairs)
}

// GaugeFunc registers a closure-backed gauge series; see CounterFunc
// for labelPairs semantics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, "gauge", fn, labelPairs)
}

func (r *Registry) funcSeries(name, help, typ string, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic("metrics: " + name + ": labelPairs must alternate key, value")
	}
	keys := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		keys = append(keys, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.newFamily(name, help, typ, keys, nil, true)
	key := joinKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byKey[key]; dup {
		panic("metrics: duplicate registration of " + name + " series")
	}
	s := &series{labelValues: values, fn: fn}
	f.byKey[key] = s
	f.series = append(f.series, s)
}

// newFamily fetches or creates the family, enforcing name validity and
// schema consistency. Re-registering an existing name panics
// (programmer error, as in prometheus client_golang's MustRegister)
// unless shareable is set — func series share a family so labelled
// multi-series func metrics (e.g. per-stage exec seconds) can be
// assembled one registration at a time.
func (r *Registry) newFamily(name, help, typ string, labelKeys []string, bounds []float64, shareable bool) *family {
	if !validName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	for _, k := range labelKeys {
		if !validName(k) || k == "le" {
			panic("metrics: invalid label key " + strconv.Quote(k) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if !shareable {
			panic("metrics: duplicate registration of " + name)
		}
		if f.typ != typ || !sameKeys(f.labelKeys, labelKeys) {
			panic("metrics: conflicting registration of " + name)
		}
		return f
	}
	f := &family{
		name:      name,
		help:      help,
		typ:       typ,
		labelKeys: append([]string(nil), labelKeys...),
		bounds:    bounds,
		byKey:     make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// WriteText writes the full exposition in Prometheus text format,
// families sorted by name, series sorted by label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		writeFamily(bw, f)
	}
	return bw.Flush()
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

func writeFamily(w *bufio.Writer, f *family) {
	if f.help != "" {
		w.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
	}
	w.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
	for _, s := range f.sortedSeries() {
		if f.typ == "histogram" {
			writeHistogramSeries(w, f, s)
			continue
		}
		w.WriteString(f.name)
		writeLabels(w, f.labelKeys, s.labelValues, "", 0)
		w.WriteByte(' ')
		w.WriteString(formatValue(s.value()))
		w.WriteByte('\n')
	}
}

func writeHistogramSeries(w *bufio.Writer, f *family, s *series) {
	snap := s.hist.Snapshot()
	var cum int64
	for i, c := range snap.Counts {
		cum += c
		bound := "+Inf"
		if i < len(snap.Bounds) {
			bound = formatValue(snap.Bounds[i])
		}
		w.WriteString(f.name + "_bucket")
		writeLabels(w, f.labelKeys, s.labelValues, bound, 1)
		w.WriteByte(' ')
		w.WriteString(strconv.FormatInt(cum, 10))
		w.WriteByte('\n')
	}
	w.WriteString(f.name + "_sum")
	writeLabels(w, f.labelKeys, s.labelValues, "", 0)
	w.WriteByte(' ')
	w.WriteString(formatValue(snap.Sum))
	w.WriteByte('\n')
	w.WriteString(f.name + "_count")
	writeLabels(w, f.labelKeys, s.labelValues, "", 0)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(snap.Count, 10))
	w.WriteByte('\n')
}

// writeLabels emits {k="v",...}; mode 1 appends le=<le> for histogram
// bucket lines.
func writeLabels(w *bufio.Writer, keys, values []string, le string, mode int) {
	if len(keys) == 0 && mode == 0 {
		return
	}
	w.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(k + "=\"" + escapeLabel(values[i]) + "\"")
	}
	if mode == 1 {
		if len(keys) > 0 {
			w.WriteByte(',')
		}
		w.WriteString("le=\"" + le + "\"")
	}
	w.WriteByte('}')
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the trace began. Parent is the ID of the span that caused this one, -1 for
// a root; all spans of one request share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp hands out the identifier the spans of one request share.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// add records a span and returns its ID.
func (t *tracer) add(name string, start, end int64, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Op: op})
	return id
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// write stores the trace as one JSON document: the raw spans, and for each
// reference bracket the range of spans recorded inside it and the factor that
// turns their raw times into adjusted ones.
func (t *tracer) write(path string, scales []spanScale) error {
	type bracketDoc struct {
		FirstSpan int     `json:"first_span"`
		EndSpan   int     `json:"end_span"`
		Factor    float64 `json:"factor"`
	}
	doc := struct {
		RefNominalMS float64      `json:"ref_nominal_ms"`
		Brackets     []bracketDoc `json:"brackets"`
		Spans        []span       `json:"spans"`
	}{RefNominalMS: refNominalMS, Spans: t.spans}
	for _, sc := range scales {
		doc.Brackets = append(doc.Brackets, bracketDoc{sc.lo, sc.hi, sc.factor})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once, children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the module name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelfTimes sums self time per layer over the spans of ops accepted by
// keep (nil keeps all), and returns the summed duration of their root spans.
func layerSelfTimes(spans []span, keep func(span) bool) (byLayer map[string]int64, total int64) {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	byLayer = map[string]int64{}
	for i, s := range spans {
		rootOf[i] = i
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent] // parents are always recorded before children
		}
		if keep != nil && !keep(spans[rootOf[i]]) {
			continue
		}
		byLayer[layerOf(s.Name)] += self[i]
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	return byLayer, total
}

// durationsMS collects the durations of all spans called name, in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

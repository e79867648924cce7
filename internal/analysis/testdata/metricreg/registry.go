// Package sandbox mirrors the repo's metrics.Registry registration
// surface so metricreg's compile-time naming rules can be exercised in
// isolation.
package sandbox

type Registry struct{}

type Histogram struct{}

type CounterVec struct{}

type HistogramVec struct{}

func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram { return &Histogram{} }

func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{}
}

func (r *Registry) HistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	return &HistogramVec{}
}

func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {}

func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {}

func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {}

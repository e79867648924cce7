package sandbox

const constName = "app_const_named_total"

func register(r *Registry, dyn string) {
	// Compliant registrations.
	r.CounterVec("app_requests_total", "requests served", "code")
	r.CounterVec(constName, "named-constant name is fine")
	r.CounterFunc("app_epochs_total", "epochs published", nil)
	r.GaugeFunc("app_in_flight", "current in-flight requests", nil)
	r.Histogram("app_latency_seconds", "request latency", nil)
	r.HistogramVec("app_stage_seconds", "per-stage latency", nil, "stage")
	r.RegisterHistogram("app_fsync_seconds", "fsync latency", &Histogram{})

	// Naming-rule violations: at least one for each registration method.
	r.CounterVec("app_requests", "no unit", "code")             // want "counter \"app_requests\" must end in _total"
	r.CounterFunc("app_ticks", "no unit", nil)                  // want "counter \"app_ticks\" must end in _total"
	r.GaugeFunc("app_stuff_total", "gauge in disguise", nil)    // want "must not end in _total"
	r.Histogram("app_latency", "no unit suffix", nil)           // want "must carry a unit suffix"
	r.HistogramVec("app_stage", "no unit suffix", nil, "s")     // want "must carry a unit suffix"
	r.RegisterHistogram("app_fsync", "no unit", &Histogram{})   // want "must carry a unit suffix"
	r.CounterVec("2bad_total", "leading digit")                 // want "invalid metric name"
	r.GaugeFunc("app_foo_bucket", "collides with samples", nil) // want "reserved histogram suffix"
	r.CounterVec(dyn, "runtime-assembled name", "code")         // want "must be a compile-time string constant"

	// Func-series of one kind share a family by design.
	r.CounterFunc("app_shared_total", "series one", nil, "k", "a")
	r.CounterFunc("app_shared_total", "series two", nil, "k", "b")

	// Everything else may not collide.
	r.Histogram("app_dup_seconds", "first", nil)
	r.Histogram("app_dup_seconds", "second", nil) // want "duplicate registration of metric family"
}

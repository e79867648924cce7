package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"graphflow"
	"graphflow/internal/baseline"
	"graphflow/internal/graph"
	"graphflow/internal/metrics"
	"graphflow/internal/query"
)

// layerMetric declares one per-layer metric. The traced run reports exactly
// these, in this order, on every workload; a metric that does not apply to a
// workload (WAL numbers on an in-memory store) reads 0 there.
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"query.parse_us_p50", "us", "lower"},
	{"query.canon_us_p50", "us", "lower"},
	{"cache.plan_hits", "count", "higher"},
	{"cache.plan_misses", "count", "lower"},
	{"cache.plan_evictions", "count", "lower"},
	{"cache.plan_hit_ratio", "ratio", "higher"},
	{"catalogue.build_ms", "ms", "lower"},
	{"catalogue.entries", "count", "lower"},
	{"catalogue.rebuilds", "count", "lower"},
	{"catalogue.estimate_q_error_p50", "ratio", "lower"},
	{"optimizer.optimize_ms_p50", "ms", "lower"},
	{"optimizer.optimize_ms_p95", "ms", "lower"},
	{"optimizer.plans_wco", "count", "higher"},
	{"optimizer.plans_bj", "count", "higher"},
	{"optimizer.plans_hybrid", "count", "higher"},
	{"exec.compile_us_p50", "us", "lower"},
	{"exec.run_ms_p50", "ms", "lower"},
	{"exec.run_ms_p95", "ms", "lower"},
	{"exec.icost", "count", "lower"},
	{"exec.intermediate", "count", "lower"},
	{"exec.cache_hits", "count", "higher"},
	{"exec.factorized_avoided", "count", "higher"},
	{"exec.scan_batches", "count", "lower"},
	{"exec.extend_batches", "count", "lower"},
	{"exec.probe_batches", "count", "lower"},
	{"exec.stage_scan_ms", "ms", "lower"},
	{"exec.stage_extend_ms", "ms", "lower"},
	{"exec.stage_probe_ms", "ms", "lower"},
	{"exec.stage_factorized_ms", "ms", "lower"},
	{"exec.stage_build_ms", "ms", "lower"},
	{"exec.stage_emit_ms", "ms", "lower"},
	{"exec.allocs_per_op", "count", "lower"},
	{"exec.alloc_bytes_per_op", "B", "lower"},
	{"graph.build_ms", "ms", "lower"},
	{"graph.kernel_merge", "count", "lower"},
	{"graph.kernel_gallop", "count", "lower"},
	{"graph.kernel_bitset_probe", "count", "lower"},
	{"graph.kernel_bitset_and", "count", "lower"},
	{"graph.intersect_ns_per_elem", "ns", "lower"},
	{"graph.hub_index_bytes", "B", "lower"},
	{"graph.csr_bytes_per_edge", "B", "lower"},
	{"adaptive.run_ms_p50", "ms", "lower"},
	{"adaptive.vs_fixed_ratio", "ratio", "lower"},
	{"live.apply_us_p50", "us", "lower"},
	{"live.apply_us_p95", "us", "lower"},
	{"live.epochs", "count", "lower"},
	{"live.compactions", "count", "lower"},
	{"live.compact_ms_p50", "ms", "lower"},
	{"live.overlay_ops_peak", "count", "lower"},
	{"live.overlay_read_ratio", "ratio", "lower"},
	{"live.overlay_bytes_per_op", "B", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.bytes_per_edge", "B", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.checkpoint_ms_p50", "ms", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"server.read_ms_p50", "ms", "lower"},
	{"server.fresh_read_ms_p50", "ms", "lower"},
	{"server.write_ms_p50", "ms", "lower"},
	{"server.overhead_us_p50", "us", "lower"},
	{"server.admission_wait_us_p50", "us", "lower"},
	{"server.shed", "count", "lower"},
	{"server.errors", "count", "lower"},
	{"resource.peak_reserved_bytes", "B", "lower"},
	{"share.server_pct", "%", "lower"},
	{"share.query_pct", "%", "lower"},
	{"share.cache_pct", "%", "lower"},
	{"share.catalogue_pct", "%", "lower"},
	{"share.optimizer_pct", "%", "lower"},
	{"share.exec_pct", "%", "lower"},
	{"share.live_pct", "%", "lower"},
	{"share.wal_pct", "%", "lower"},
	{"bench.ref_ms_p50", "ms", "lower"},
	{"bench.ref_spread", "ratio", "lower"},
	{"bench.raw_ops_per_s", "1/s", "higher"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// tracedRounds is how many rounds the traced run records for a given
// --seconds: a fixed number, so that counters repeat exactly between two runs
// with the same arguments. Every traced op runs twice (served, then
// replayed), and the run also makes plain rounds and probes.
func tracedRounds(seconds float64) int {
	return min(max(int(seconds/4), 2), 8)
}

// runTraced is the per-layer run. Each request's root span wraps the real
// ServeHTTP call; its children come from replaying the same request on the
// benchmark's replica through the layers' public functions. The end-to-end
// numbers of the untraced run are not reported here: only the per-layer
// metrics, which the untraced run in turn does not have.
func runTraced(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}
	ref := newRefKernel(w.clients, cfg.smoke)
	ref.run()
	e, err := setUp(w)
	if err != nil {
		return nil, err
	}
	defer func() { _ = e.close() }()
	if err := oracle(e.db, w.hot); err != nil {
		return nil, err
	}

	tr := newTracer()
	runtime.GC()
	setUpBracket := bracket{before: ref.run()}
	rp, err := newReplica(w, tr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = rp.close() }()
	setUpBracket.after = ref.run()
	scales := []spanScale{{0, len(tr.spans), setUpBracket.factor()}}

	res := &result{}
	// follow keeps the replica in step with writes the server took in rounds
	// that are not traced.
	follow := func(clients [][]op) {
		for _, ops := range clients {
			for i := range ops {
				if ops[i].kind == opWrite {
					if err := rp.write(nil, &ops[i]); err != nil {
						res.fail("replica: " + err.Error())
					}
				}
			}
		}
	}
	s := &session{w: w, e: e, ref: ref, res: res}
	follow(s.warmUp())

	nTraced, nPlain := tracedRounds(cfg.seconds), 3
	if cfg.smoke {
		nTraced, nPlain = 1, 1
	}
	plain := s.measure(0, nPlain, nil, follow)

	before := readCounters(e.db)
	stopPeak := samplePeakReserved(e.db)
	marks := []int{len(tr.spans)}
	replay := func(o *op, start, end time.Time, count int64) string {
		id := tr.newOp()
		root := tr.add("server."+kindName(o.kind), tr.since(start), tr.since(end), -1, id)
		l := &layout{tr: tr, parent: root, op: id, cursor: tr.since(start)}
		if o.kind == opWrite {
			if err := rp.write(l, o); err != nil {
				return "replica: " + err.Error()
			}
			return ""
		}
		n, err := rp.read(l, o)
		if err != nil {
			return "replica: " + err.Error()
		}
		if n != count {
			return fmt.Sprintf("replica counts %d for %s, server answered %d", n, o.pattern, count)
		}
		return ""
	}
	var lastRound [][]op
	traced := s.measure(0, nTraced, replay, func(ops [][]op) {
		marks = append(marks, len(tr.spans)) // between rounds no client is running
		lastRound = ops
	})
	peakReserved, after := stopPeak(), readCounters(e.db)
	for i, f := range traced.factors {
		scales = append(scales, spanScale{marks[i], marks[i+1], f})
	}

	v := map[string]float64{}
	probeBracket := bracket{before: ref.run()}
	probe := probes{w: w, e: e, rp: rp, res: res, v: v}
	probe.qError()
	probe.execAllocs(lastRound)
	probe.intersect()
	probe.adaptive()
	probe.overlayReads()
	probe.serverMetrics()
	if w.shadow != nil {
		res.fail(verifyMutations(w, e)...)
	}
	if w.durable {
		took, failures := verifyRecovery(w, e)
		res.fail(failures...)
		v["wal.recover_ms"] = float64(took) / 1e6
	}
	probeBracket.after = ref.run()
	for _, name := range []string{"graph.intersect_ns_per_elem", "adaptive.run_ms_p50", "wal.recover_ms"} {
		v[name] *= probeBracket.factor()
	}

	if cfg.outDir != "" {
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), scales); err != nil {
			return nil, err
		}
	}

	// Span-derived numbers read the adjusted spans: each span's times
	// multiplied by the reference factor of the round (or set-up) it was
	// recorded in.
	spans := adjustSpans(tr.spans, scales)
	spanMetrics(v, spans)
	replicaMetrics(v, rp)
	counterMetrics(v, before, after)
	v["resource.peak_reserved_bytes"] = float64(peakReserved)
	v["bench.ref_ms_p50"] = median(traced.refMS)
	v["bench.ref_spread"] = quartileSpread(traced.refMS)
	v["bench.raw_ops_per_s"] = float64(plain.rawOps) / plain.rawWall.Seconds()
	if base := median(plain.adjusted); base > 0 {
		v["bench.trace_overhead"] = median(traced.adjusted) / base
	}

	for _, lm := range layerMetrics {
		res.metrics = append(res.metrics, metric{lm.name, v[lm.name], lm.unit})
	}
	res.notes = append(res.notes,
		metric{"traced_rounds", float64(traced.rounds), "count"},
		metric{"traced_ops", float64(len(traced.adjusted)), "count"},
		metric{"spans", float64(len(spans)), "count"})
	return res, nil
}

// spanMetrics fills v with the metrics computed from (adjusted) spans:
// per-call latencies of every layer, self time per layer as a share of all
// traced time, and what the server adds on top of the library.
func spanMetrics(v map[string]float64, spans []span) {
	p50 := func(name string, perMS float64) float64 { return median(durationsMS(spans, name)) * perMS }
	p95of := func(name string) float64 {
		val, _ := p95(durationsMS(spans, name)) // 0 when too few samples support it
		return val
	}
	v["query.parse_us_p50"] = p50("query.parse", 1e3)
	v["query.canon_us_p50"] = p50("query.canon", 1e3)
	v["catalogue.build_ms"] = p50("catalogue.build", 1)
	v["catalogue.rebuilds"] = float64(len(durationsMS(spans, "catalogue.build")) - 1) // all but the set-up's
	v["optimizer.optimize_ms_p50"] = p50("optimizer.optimize", 1)
	v["optimizer.optimize_ms_p95"] = p95of("optimizer.optimize")
	v["exec.compile_us_p50"] = p50("exec.compile", 1e3)
	v["exec.run_ms_p50"] = p50("exec.run", 1)
	v["exec.run_ms_p95"] = p95of("exec.run")
	for _, stage := range []string{"scan", "extend", "probe", "factorized", "build", "emit"} {
		total := 0.0
		for _, d := range durationsMS(spans, "exec.stage_"+stage) {
			total += d
		}
		v["exec.stage_"+stage+"_ms"] = total
	}
	v["graph.build_ms"] = p50("graph.build", 1)
	v["live.apply_us_p50"] = p50("live.apply", 1e3)
	v["live.apply_us_p95"] = p95of("live.apply") * 1e3
	v["live.compact_ms_p50"] = p50("live.compact", 1)
	v["wal.append_us_p50"] = p50("wal.append", 1e3)
	v["wal.checkpoint_ms_p50"] = p50("wal.checkpoint", 1)
	for k := opRead; k <= opWrite; k++ {
		v["server."+kindName(k)+"_ms_p50"] = p50("server."+kindName(k), 1)
	}

	self := selfTimes(spans)
	var overheadUS []float64
	for i, s := range spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "server.") {
			overheadUS = append(overheadUS, float64(self[i])/1e3)
		}
	}
	v["server.overhead_us_p50"] = median(overheadUS)
	byLayer, total := layerSelfTimes(spans, func(root span) bool { return root.Name != "bench.setup" })
	for _, layer := range []string{"server", "query", "cache", "catalogue", "optimizer", "exec", "live", "wal"} {
		if total > 0 {
			v["share."+layer+"_pct"] = 100 * float64(byLayer[layer]) / float64(total)
		}
	}
}

// replicaMetrics fills v with what the replay accumulated on the replica:
// executor profiles summed over the traced reads, plan kinds, overlay peak.
func replicaMetrics(v map[string]float64, rp *replica) {
	v["catalogue.entries"] = float64(rp.cat.Len())
	v["optimizer.plans_wco"] = float64(rp.planKinds["wco"])
	v["optimizer.plans_bj"] = float64(rp.planKinds["bj"])
	v["optimizer.plans_hybrid"] = float64(rp.planKinds["hybrid"])
	v["exec.icost"] = float64(rp.prof.ICost)
	v["exec.intermediate"] = float64(rp.prof.Intermediate)
	v["exec.cache_hits"] = float64(rp.prof.CacheHits)
	v["exec.factorized_avoided"] = float64(rp.prof.FactorizedAvoided)
	v["exec.scan_batches"] = float64(rp.prof.Batches.Scan)
	v["exec.extend_batches"] = float64(rp.prof.Batches.Extend)
	v["exec.probe_batches"] = float64(rp.prof.Batches.Probe)
	v["graph.kernel_merge"] = float64(rp.prof.Kernels.Merge)
	v["graph.kernel_gallop"] = float64(rp.prof.Kernels.Gallop)
	v["graph.kernel_bitset_probe"] = float64(rp.prof.Kernels.BitsetProbe)
	v["graph.kernel_bitset_and"] = float64(rp.prof.Kernels.BitsetAnd)
	v["graph.csr_bytes_per_edge"] = rp.csrBytesPerEdge
	v["live.overlay_ops_peak"] = float64(rp.overlayPk)
	if rp.walEdges > 0 {
		v["wal.bytes_per_edge"] = float64(rp.log.Size()) / float64(rp.walEdges)
	}
}

// counters are readings of what the served store itself exposes.
type counters struct {
	planCache graphflow.PlanCacheStats
	live      graphflow.LiveStats
}

func readCounters(db *graphflow.DB) counters {
	return counters{db.PlanCacheStats(), db.LiveStats()}
}

// counterMetrics fills v with how far the served store's own counters moved
// over the traced rounds.
func counterMetrics(v map[string]float64, before, after counters) {
	v["cache.plan_hits"] = float64(after.planCache.Hits - before.planCache.Hits)
	v["cache.plan_misses"] = float64(after.planCache.Misses - before.planCache.Misses)
	v["cache.plan_evictions"] = float64(after.planCache.Evictions - before.planCache.Evictions)
	if lookups := v["cache.plan_hits"] + v["cache.plan_misses"]; lookups > 0 {
		v["cache.plan_hit_ratio"] = v["cache.plan_hits"] / lookups
	}
	v["graph.hub_index_bytes"] = float64(after.live.BitsetIndexBytes)
	v["live.epochs"] = float64(after.live.Epoch - before.live.Epoch)
	v["live.compactions"] = float64(after.live.Compactions - before.live.Compactions)
	v["wal.checkpoints"] = float64(after.live.Checkpoints - before.live.Checkpoints)
}

// spanScale says that spans[lo:hi] were recorded inside one reference
// bracket and what its factor was.
type spanScale struct {
	lo, hi int
	factor float64
}

// adjustSpans returns a copy of spans with every time multiplied by the
// factor of the bracket the span was recorded in. Multiplying start and end
// alike keeps children inside their parents and scales every duration.
func adjustSpans(spans []span, scales []spanScale) []span {
	out := append([]span(nil), spans...)
	for _, sc := range scales {
		for i := sc.lo; i < sc.hi && i < len(out); i++ {
			out[i].Start = int64(float64(out[i].Start) * sc.factor)
			out[i].End = int64(float64(out[i].End) * sc.factor)
		}
	}
	return out
}

// samplePeakReserved polls the memory governor while the traced rounds run
// and returns a function that stops the polling and reports the highest
// reservation seen. The program exposes only the current value.
func samplePeakReserved(db *graphflow.DB) (stop func() int64) {
	done := make(chan struct{})
	var (
		wg   sync.WaitGroup
		peak int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, db.Governor().InUse())
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// probes are the per-layer measurements taken once, after the traced rounds,
// by calling a layer's public functions or reading counters the program
// exposes. Each writes its metrics into v.
type probes struct {
	w   *workload
	e   *env
	rp  *replica
	res *result
	v   map[string]float64
}

// qError compares the catalogue's cardinality estimates with true counts:
// the hot patterns' oracle counts, and those pool patterns whose count stayed
// under the limit and is therefore exact.
func (p *probes) qError() {
	var errs []float64
	for _, pats := range [][]checkedPattern{p.w.hot, p.w.pool} {
		for _, cp := range pats {
			if cp.want <= 0 || (cp.name == "" && cp.want >= coldPlanLimit) {
				continue
			}
			q, err := query.ParseAny(cp.pattern)
			if err != nil {
				continue
			}
			errs = append(errs, baseline.QError(p.rp.cat.EstimateCardinality(q), float64(cp.want)))
		}
	}
	p.v["catalogue.estimate_q_error_p50"] = median(errs)
}

// execAllocs runs the reads of the last traced round once more on the
// replica, plans resolved beforehand, on this goroutine alone, and divides
// the allocation counters' movement by the number of runs.
func (p *probes) execAllocs(clients [][]op) {
	type resolved struct {
		pl *replicaPlan
		o  *op
	}
	var runs []resolved
	for i := range clients[0] {
		o := &clients[0][i]
		if o.kind == opWrite {
			continue
		}
		if pl, err := p.rp.resolve(nil, o); err == nil {
			runs = append(runs, resolved{pl, o})
		}
	}
	if len(runs) == 0 {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range runs {
		if _, _, err := p.rp.execute(r.pl, r.o); err != nil {
			p.res.fail("replica: " + err.Error())
		}
	}
	runtime.ReadMemStats(&after)
	p.v["exec.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(len(runs))
	p.v["exec.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(runs))
}

// intersect times graph.Intersect on the forward adjacency lists of the two
// vertices with the most out-neighbours.
func (p *probes) intersect() {
	snap := p.rp.store.Snapshot()
	type vd struct {
		v graph.VertexID
		d int
	}
	var top [2]vd
	for v := 0; v < snap.NumVertices(); v++ {
		d := snap.OutDegree(graph.VertexID(v))
		switch {
		case d > top[0].d:
			top[1], top[0] = top[0], vd{graph.VertexID(v), d}
		case d > top[1].d:
			top[1] = vd{graph.VertexID(v), d}
		}
	}
	a := snap.Neighbors(top[0].v, graph.Forward, graph.WildcardLabel, graph.WildcardLabel, nil)
	b := snap.Neighbors(top[1].v, graph.Forward, graph.WildcardLabel, graph.WildcardLabel, nil)
	if len(a)+len(b) == 0 {
		return
	}
	const reps = 2000
	out := make([]graph.VertexID, 0, len(a))
	start := time.Now()
	for i := 0; i < reps; i++ {
		out = graph.Intersect(a, b, out[:0])
	}
	p.v["graph.intersect_ns_per_elem"] = float64(time.Since(start)) / float64(reps*(len(a)+len(b)))
}

// timeRead sends one read to the server and returns how long it took.
func (p *probes) timeRead(o *op) time.Duration {
	rec := &recorder{}
	start := time.Now()
	status, body := serve(p.e.srv, rec, o.path, o.body)
	took := time.Since(start)
	if _, why := o.check(status, body); why != "" {
		p.res.fail(why)
	}
	return took
}

// adaptive runs every prepared pattern once with the fixed plan and once
// with adaptive re-ordering (Section 6 of the paper), both verified.
func (p *probes) adaptive() {
	var adaptiveMS []float64
	var fixedTotal, adaptiveTotal time.Duration
	for _, h := range p.w.hot {
		o := op{kind: opRead, path: "/execute/" + h.name, pattern: h.pattern, want: h.want}
		o.body = mustJSON(map[string]any{"workers": 1})
		fixedTotal += p.timeRead(&o)
		o.body = mustJSON(map[string]any{"workers": 1, "adaptive": true})
		d := p.timeRead(&o)
		adaptiveTotal += d
		adaptiveMS = append(adaptiveMS, float64(d)/1e6)
	}
	p.v["adaptive.run_ms_p50"] = median(adaptiveMS)
	if fixedTotal > 0 {
		p.v["adaptive.vs_fixed_ratio"] = float64(adaptiveTotal) / float64(fixedTotal)
	}
}

// overlayReads times the check patterns on the served store as the writes
// left it, compacts, and times them again: the ratio is what reading through
// the delta overlay costs over reading a clean CSR. Each pattern is sent
// twice and the second, planned and warm, is the one timed. The heap on
// either side of the compaction gives the overlay's size per pending op.
func (p *probes) overlayReads() {
	if p.w.shadow == nil {
		return
	}
	pass := func() time.Duration {
		var total time.Duration
		for _, pat := range p.w.checkPatterns {
			o := op{kind: opRead, path: "/query", pattern: pat, want: -1, body: mustJSON(map[string]any{"pattern": pat})}
			p.timeRead(&o)
			total += p.timeRead(&o)
		}
		return total
	}
	p.e.db.WaitCompaction()
	overlay := pass()
	pending, heapBefore := p.e.db.LiveStats().DeltaOps, heapAlloc()
	if status, body := serve(p.e.srv, &recorder{}, "/compact", nil); status != http.StatusOK {
		p.res.fail(fmt.Sprintf("/compact: status %d: %s", status, body))
		return
	}
	if pending > 0 {
		// Compaction swaps the base CSR for one of the same size, so what
		// the heap shrinks by is what the overlay held.
		p.v["live.overlay_bytes_per_op"] = float64(int64(heapBefore)-int64(heapAlloc())) / float64(pending)
	}
	if clean := pass(); clean > 0 {
		p.v["live.overlay_read_ratio"] = float64(overlay) / float64(clean)
	}
}

// serverMetrics scrapes the server's own /metrics exposition.
func (p *probes) serverMetrics() {
	var buf bytes.Buffer
	if err := p.e.srv.Metrics().WriteText(&buf); err != nil {
		p.res.fail("/metrics: " + err.Error())
		return
	}
	families, err := metrics.ParseText(&buf)
	if err != nil {
		p.res.fail("/metrics: " + err.Error())
		return
	}
	for _, f := range families {
		switch f.Name {
		case "graphflow_admission_wait_seconds":
			if bounds, counts, ok := f.Buckets(nil); ok {
				var n int64
				for _, c := range counts {
					n += c
				}
				if n > 0 {
					p.v["server.admission_wait_us_p50"] = metrics.QuantileFromBuckets(bounds, counts, 0.5) * 1e6
				}
			}
		case "graphflow_admission_shed_total":
			for _, s := range f.Series {
				p.v["server.shed"] += s.Value
			}
		case "graphflow_http_responses_total":
			for _, s := range f.Series {
				if code := s.Labels["code"]; !strings.HasPrefix(code, "2") {
					p.v["server.errors"] += s.Value
				}
			}
		}
	}
}

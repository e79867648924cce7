package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool   // one short round on small inputs, for the unit tests
	outDir   string // where the traced run writes its spans
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports: the contract's four keys plus extra lines
// for the reader (reference-kernel drift, per-type latencies).
type result struct {
	attempted, failed int
	failures          []string // the first few, for the reader
	metrics           []metric
	notes             []metric
}

func (r *result) fail(why ...string) {
	r.failed += len(why)
	for _, w := range why {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, w)
		}
	}
}

// count books the ops of one round.
func (r *result) count(rr roundResult) {
	r.attempted += len(rr.samples)
	r.fail(rr.failures...)
}

// endToEnd declares the end-to-end metrics, the same five on every workload.
// Latencies pool every op of the workload: on fresh-read one op in ten is the
// first read after a write and the rest are far cheaper, so op_p95_ms is the
// median of those fresh reads and op_p50_ms a warm read; on ingest-heavy
// every op is a write; on hot-count and cold-plan every op is a read.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"resident_bytes_per_edge", "B"},
}

const setUpRepeats = 3

// setUps is what the repeated set-ups measured: each one's adjusted time, and
// the heap each store held once it answered, over the harness's own.
type setUps struct {
	seconds []float64
	heap    []float64
}

// timedSetUps builds the served store `repeats` times on fresh data, each
// bracketed by the reference kernel, and returns the last env. The first store
// also computes the oracle counts of the hot patterns before it is discarded.
func timedSetUps(w *workload, ref *refKernel, repeats int, harnessHeap uint64) (*env, setUps, error) {
	var (
		e   *env
		out setUps
	)
	for i := 0; i < repeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, out, err
			}
		}
		runtime.GC()
		br := bracket{before: ref.run()}
		start := time.Now()
		var err error
		if e, err = setUp(w); err != nil {
			return nil, out, err
		}
		took := time.Since(start)
		br.after = ref.run()
		out.seconds = append(out.seconds, took.Seconds()*br.factor())
		out.heap = append(out.heap, float64(heapAlloc())-float64(harnessHeap))
		if i == 0 {
			if err := oracle(e.db, w.hot); err != nil {
				return nil, out, err
			}
		}
	}
	return e, out, nil
}

// measured is the pooled outcome of the measured rounds.
type measured struct {
	rounds     int
	adjusted   []float64            // every op's adjusted latency, ms
	byKind     map[opKind][]float64 // the same, per op type
	throughput []float64            // adjusted ops/s, one per round
	raw        []float64            // every op's latency as the clock read it, ms
	rawOps     int
	rawWall    time.Duration
	refMS      []float64
	factors    []float64 // one per round: what its timings were multiplied by
}

// add books one round: its samples and throughput, adjusted by the reference
// runs on either side of it.
func (m *measured) add(rr roundResult, br bracket) {
	f := br.factor()
	if m.byKind == nil {
		m.byKind = map[opKind][]float64{}
	}
	for _, s := range rr.samples {
		m.raw = append(m.raw, s.ms)
		m.adjusted = append(m.adjusted, s.ms*f)
		m.byKind[s.kind] = append(m.byKind[s.kind], s.ms*f)
	}
	m.throughput = append(m.throughput, rr.opsPerS/f)
	m.rawOps += len(rr.samples)
	m.rawWall += rr.wall
	m.refMS = append(m.refMS, br.refMS())
	m.factors = append(m.factors, f)
	m.rounds++
}

// session is one served store being driven: what the untraced and the
// traced run share.
type session struct {
	w    *workload
	e    *env
	ref  *refKernel
	res  *result
	next int // the next round to generate; rounds must be generated in order
}

// generate returns the next round's requests.
func (s *session) generate() [][]op {
	s.next++
	return s.w.round(s.next - 1)
}

// warmUp runs the round that is verified but not timed.
func (s *session) warmUp() [][]op {
	ops := s.generate()
	s.res.count(runRound(s.e, ops, nil))
	return ops
}

// measure runs rounds, each between two reference runs, for `rounds` rounds
// or, when rounds is 0, until `seconds` have passed. One reference run
// separates two rounds and serves both; the next round's requests are
// generated and the heap collected just before it, outside every timed
// round. after observes every op, between every finished round; either may
// be nil.
func (s *session) measure(seconds float64, rounds int, after hook, between func([][]op)) measured {
	var m measured
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ops := s.generate()
	runtime.GC()
	prev := s.ref.run()
	for {
		rr := runRound(s.e, ops, after)
		s.res.count(rr)
		if between != nil {
			between(ops)
		}
		done := m.rounds+1 == rounds || (rounds == 0 && time.Until(deadline) < rr.wall/2)
		if !done {
			// A mutation workload's generator advances the shadow edge set, so
			// no round is generated that will not run.
			ops = s.generate()
		}
		runtime.GC()
		now := s.ref.run()
		m.add(rr, bracket{prev, now})
		if prev = now; done {
			return m
		}
	}
}

func kindName(k opKind) string {
	return [...]string{"read", "fresh_read", "write"}[k]
}

// runUntraced is the end-to-end run: tracing off, every number a user of the
// server would see.
func runUntraced(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}
	ref := newRefKernel(w.clients, cfg.smoke)
	ref.run() // touch the kernel's arrays once before any bracket uses it
	harnessHeap := heapAlloc()

	repeats := setUpRepeats
	if cfg.smoke {
		repeats = 1
	}
	e, sets, err := timedSetUps(w, ref, repeats, harnessHeap)
	if err != nil {
		return nil, err
	}
	defer func() { _ = e.close() }() // a second close of a closed store is harmless

	res := &result{}
	s := &session{w: w, e: e, ref: ref, res: res}
	s.warmUp()
	rounds := 0 // as many as fit into cfg.seconds
	if cfg.smoke {
		rounds = 1
	}
	m := s.measure(cfg.seconds, rounds, nil, nil)

	// Mutation workloads end with a forced compaction: how many overlay ops
	// are pending when the clock runs out is an accident of timing, and
	// would swing the number by a third. What the overlay costs is the
	// traced run's live.overlay_bytes_per_op.
	e.db.WaitCompaction()
	if err := e.db.Compact(); err != nil {
		return nil, err
	}
	// Everything the harness held when the baseline was taken is still held
	// here, so the difference is what the served store keeps resident. Two
	// builds of one graph do not hold the same: catalogue.Build settles on
	// one of a few entry counts (23 k to 30 k on cold-plan's graph, 4.4 to
	// 6.5 MB), which alone would swing the number by a tenth between runs.
	// So the base is the mean over the set-ups, and the served store adds
	// what it grew by while it was driven.
	last := len(sets.heap) - 1
	grown := float64(heapAlloc()) - float64(harnessHeap) - sets.heap[last]
	resident := (mean(sets.heap) + grown) / float64(e.db.NumEdges())
	runtime.KeepAlive(ref)

	if w.shadow != nil {
		res.fail(verifyMutations(w, e)...)
	}
	if w.durable {
		_, failures := verifyRecovery(w, e)
		res.fail(failures...)
	}

	// The contract wants every end-to-end metric on every run, so a run on a
	// machine slow enough to complete fewer than minP95Samples ops still
	// reports its 95th percentile, and says that fewer than ten samples lie
	// beyond it.
	all := sortedCopy(m.adjusted)
	p95ms := quantile(all, 0.95)
	if len(all) < minP95Samples && !cfg.smoke {
		fmt.Fprintf(os.Stderr, "benchmark: only %d ops completed in %.0f s: op_p95_ms rests on fewer than %d samples\n",
			len(all), cfg.seconds, minP95Samples)
	}
	for i, value := range []float64{
		median(sets.seconds), fastQuartile(m.throughput), quantile(all, 0.5), p95ms, resident,
	} {
		res.metrics = append(res.metrics, metric{endToEnd[i].name, value, endToEnd[i].unit})
	}
	res.notes = append(res.notes,
		metric{"rounds", float64(m.rounds), "count"},
		metric{"ops", float64(len(m.adjusted)), "count"})
	for k := opRead; k <= opWrite; k++ {
		s := m.byKind[k]
		if len(s) == 0 {
			continue
		}
		res.notes = append(res.notes, metric{kindName(k) + "_p50_ms", median(s), "ms"})
		if v, ok := p95(s); ok {
			res.notes = append(res.notes, metric{kindName(k) + "_p95_ms", v, "ms"})
		}
	}
	res.notes = append(res.notes, benchNotes(&m)...)
	return res, nil
}

// benchNotes are the numbers that say how far the machine drifted during the
// run: with them a disagreeing pair of runs can be read as machine drift or
// as a real change.
func benchNotes(m *measured) []metric {
	return []metric{
		{"bench.ref_ms_p50", median(m.refMS), "ms"},
		{"bench.ref_spread", quartileSpread(m.refMS), "ratio"},
		{"bench.raw_ops_per_s", float64(m.rawOps) / m.rawWall.Seconds(), "1/s"},
		{"bench.raw_op_p50_ms", median(m.raw), "ms"},
	}
}

var errIncorrect = errors.New("benchmark: at least one op failed or answered wrongly")

package optimizer

import (
	stdcontext "context"
	"time"

	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// Calibrate empirically derives the hash-join weights w1 and w2 (Section
// 4.2): it profiles an intersection-heavy WCO plan to obtain the wall-time
// of one i-cost unit, then profiles a hash-join plan to obtain per-hashed-
// and per-probed-tuple times, and expresses the latter in i-cost units.
// Falls back to the defaults if the micro-profiles are too small to be
// reliable.
func Calibrate(g *graph.Graph) (w1, w2 float64) {
	w1, w2 = DefaultW1, DefaultW2

	// i-cost unit time: close triangles over the whole graph.
	q := query.Q1()
	scan := plan.NewScan(q, q.Edges[0])
	ext, err := plan.NewExtend(q, scan, 2)
	if err != nil {
		return w1, w2
	}
	wcoPlan := &plan.Plan{Query: q, Root: ext}
	start := time.Now()
	_, prof, err := countPlan(g, wcoPlan, exec.RunConfig{})
	if err != nil || prof.ICost < 1000 {
		return w1, w2
	}
	icostUnit := time.Since(start).Seconds() / float64(prof.ICost)

	// Hash-join time: join two scans of a 3-path (a1->a2 joined a2->a3).
	q3 := query.MustParse("a1->a2, a2->a3")
	left := plan.NewScan(q3, q3.Edges[0])
	right := plan.NewScan(q3, q3.Edges[1])
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		return w1, w2
	}
	hjPlan := &plan.Plan{Query: q3, Root: hj}
	start = time.Now()
	_, hjProf, err := countPlan(g, hjPlan, exec.RunConfig{})
	if err != nil || hjProf.HashedTuples < 1000 || hjProf.ProbedTuples < 1000 {
		return w1, w2
	}
	elapsed := time.Since(start).Seconds()
	// Split the join time between build and probe using a fixed 2:1 cost
	// ratio for insert vs probe (hashing + allocation vs lookup), then
	// normalise to i-cost units.
	denom := 2*float64(hjProf.HashedTuples) + float64(hjProf.ProbedTuples)
	if denom == 0 || icostUnit == 0 {
		return w1, w2
	}
	perUnit := elapsed / denom
	w1 = clampWeight(2 * perUnit / icostUnit)
	w2 = clampWeight(perUnit / icostUnit)
	return w1, w2
}

// countPlan compiles p against g and counts its matches under cfg.
func countPlan(g graph.View, p *plan.Plan, cfg exec.RunConfig) (int64, exec.Profile, error) {
	cp, err := exec.Compile(g, p)
	if err != nil {
		return 0, exec.Profile{}, err
	}
	return cp.CountCtx(stdcontext.Background(), cfg)
}

// clampWeight bounds calibrated weights to a sane range so noisy
// micro-profiles cannot produce degenerate cost models.
func clampWeight(w float64) float64 {
	const lo, hi = 0.25, 32.0
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

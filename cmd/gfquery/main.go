// Command gfquery runs subgraph queries end to end: load or generate a
// graph, build the catalogue, optimize, execute, and report the plan and
// statistics. Queries are compiled once with the prepared-query API and
// run from the compiled form; -repeat shows planning amortizing away
// across repeated executions.
//
// Usage:
//
//	gfquery -dataset Epinions -query "a->b, b->c, a->c"
//	gfquery -data graph.txt -query "a->b, b->c" -workers 8 -explain
//	gfquery -dataset Epinions -query "a->b, b->c, a->c" -repeat 5
//	gfquery -dataset Epinions            # interactive: one pattern per line
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"graphflow"
)

func main() {
	var (
		dataFile = flag.String("data", "", "edge-list file to load, optionally gzip-compressed (see internal/graph format)")
		dsName   = flag.String("dataset", "", "built-in dataset name (Amazon, Epinions, LiveJournal, Twitter, BerkStan, Google, Human)")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		pattern  = flag.String("query", "", "query pattern, e.g. \"a->b, b->c, a->c\"; empty starts an interactive loop")
		workers  = flag.Int("workers", 1, "parallel workers")
		adaptive = flag.Bool("adaptive", false, "adaptive query-vertex-ordering selection")
		wcoOnly  = flag.Bool("wco", false, "restrict the optimizer to WCO plans")
		limit    = flag.Int64("limit", 0, "stop after this many matches (0 = all)")
		repeat   = flag.Int("repeat", 1, "execute the prepared query this many times")
		explain  = flag.Bool("explain", false, "print the plan without executing")
		analyze  = flag.Bool("analyze", false, "run and print per-operator statistics")
		catZ     = flag.Int("catz", 1000, "catalogue sample size z")
		catH     = flag.Int("cath", 3, "catalogue max subquery size h")
	)
	flag.Parse()
	if *analyze && (*workers > 1 || *adaptive || *limit != 0) {
		// EXPLAIN ANALYZE counts every match of the fixed plan on one
		// goroutine; better to refuse than to print numbers for a run the
		// flags did not ask for. -wco does apply.
		fmt.Fprintln(os.Stderr, "gfquery: -analyze runs single-threaded to completion on the fixed plan; it cannot be combined with -workers > 1, -adaptive or -limit")
		os.Exit(2)
	}

	opts := &graphflow.Options{CatalogueH: *catH, CatalogueZ: *catZ}
	var db *graphflow.DB
	var err error
	switch {
	case *dataFile != "":
		f, ferr := os.Open(*dataFile)
		if ferr != nil {
			fatal(ferr)
		}
		db, err = graphflow.NewFromEdgeList(f, opts)
		f.Close()
	case *dsName != "":
		db, err = graphflow.NewFromDataset(*dsName, *scale, opts)
	default:
		fmt.Fprintln(os.Stderr, "gfquery: one of -data or -dataset is required")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", db.NumVertices(), db.NumEdges())

	qo := &graphflow.QueryOptions{
		Workers:  *workers,
		Adaptive: *adaptive,
		WCOOnly:  *wcoOnly,
		Limit:    *limit,
	}

	if *pattern == "" {
		repl(db, qo)
		return
	}

	if *explain {
		pq, err := prepareFor(db, qo)(*pattern)
		if err != nil {
			fatal(err)
		}
		st := pq.Stats()
		fmt.Printf("plan kind: %s\n%s", st.PlanKind, st.Plan)
		if est, err := db.EstimateCardinality(*pattern); err == nil {
			fmt.Printf("estimated matches: %.1f\n", est)
		}
		return
	}
	if *analyze {
		if err := runAnalyze(db, *pattern, qo); err != nil {
			fatal(err)
		}
		return
	}

	if err := runPrepared(db, *pattern, qo, *repeat); err != nil {
		fatal(err)
	}
}

// runAnalyze is EXPLAIN ANALYZE at the CLI: execute single-threaded and
// print the operator tree annotated with actual tuples, i-cost, cache
// hits, attributed wall time and the factorized tail's components,
// followed by the per-stage breakdown. Of
// qo, the plan space (-wco) applies.
func runAnalyze(db *graphflow.DB, pattern string, qo *graphflow.QueryOptions) error {
	start := time.Now()
	st, err := db.Analyze(pattern, qo)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("matches: %d\nplan kind: %s\n%s", st.Matches, st.PlanKind, st.Plan)
	if sn := st.Stages; sn.Total() > 0 {
		ms := func(n int64) float64 { return float64(n) / 1e6 }
		fmt.Printf("stage times: scan %.2fms  extend %.2fms  probe %.2fms  factorized %.2fms  build %.2fms  emit %.2fms\n",
			ms(sn.Scan), ms(sn.Extend), ms(sn.Probe), ms(sn.Factorized), ms(sn.Build), ms(sn.Emit))
	}
	fmt.Printf("elapsed: %v\n", elapsed)
	return nil
}

// runPrepared compiles the pattern once, runs it repeat times, and
// reports per-run wall time: with the compiled plan reused, every run
// after the first pays execution cost only.
// prepareFor selects the Prepare variant matching the session's planning
// options (-wco restricts the plan space at compile time).
func prepareFor(db *graphflow.DB, qo *graphflow.QueryOptions) func(string) (*graphflow.PreparedQuery, error) {
	if qo.WCOOnly {
		return db.PrepareWCO
	}
	return db.Prepare
}

func runPrepared(db *graphflow.DB, pattern string, qo *graphflow.QueryOptions, repeat int) error {
	planStart := time.Now()
	pq, err := prepareFor(db, qo)(pattern)
	if err != nil {
		return err
	}
	planTime := time.Since(planStart)
	if repeat < 1 {
		repeat = 1
	}
	var st graphflow.Stats
	var n int64
	for i := 0; i < repeat; i++ {
		runStart := time.Now()
		n, st, err = pq.CountStats(qo)
		if err != nil {
			return err
		}
		if repeat > 1 {
			fmt.Printf("run %d: %d matches in %v\n", i+1, n, time.Since(runStart))
		}
	}
	fmt.Printf("matches: %d\n", n)
	fmt.Printf("plan kind: %s  (planned+compiled once in %v)\nintermediate: %d  i-cost: %d  cache hits: %d  carried sets: %d  pinned probes: %d  reroutes: %d\n%s",
		st.PlanKind, planTime, st.Intermediate, st.ICost, st.CacheHits, st.CarriedSets, st.Kernels.PinnedProbe, st.Reroutes, st.Plan)
	return nil
}

// repl reads one pattern per line and evaluates it through the DB's plan
// cache, so re-issuing a query (or an isomorphic spelling of it) skips
// re-optimization. Commands: ":explain <pattern>", ":cache", ":quit".
func repl(db *graphflow.DB, qo *graphflow.QueryOptions) {
	fmt.Println(`interactive mode - enter a pattern ("a->b, b->c, a->c"), ":explain <pattern>", ":analyze <pattern>", ":cache" or ":quit"`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("gfquery> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit" || line == ":q" || line == ":exit":
			return
		case line == ":cache":
			cs := db.PlanCacheStats()
			fmt.Printf("plan cache: %d entries, %d hits, %d misses, %d evictions\n",
				cs.Entries, cs.Hits, cs.Misses, cs.Evictions)
		case strings.HasPrefix(line, ":analyze "):
			if err := runAnalyze(db, strings.TrimSpace(strings.TrimPrefix(line, ":analyze ")), qo); err != nil {
				fmt.Println("error:", err)
			}
		case strings.HasPrefix(line, ":explain "):
			// Plan in the same space queries execute in (-wco applies).
			pq, err := prepareFor(db, qo)(strings.TrimSpace(strings.TrimPrefix(line, ":explain ")))
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			st := pq.Stats()
			fmt.Printf("plan kind: %s\n%s", st.PlanKind, st.Plan)
		default:
			start := time.Now()
			n, st, err := db.CountStats(line, qo)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("matches: %d  (%v, plan kind %s)\n", n, time.Since(start), st.PlanKind)
		}
		fmt.Print("gfquery> ")
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfquery:", err)
	os.Exit(1)
}

// Command gfbench regenerates the paper's tables and figures (see
// DESIGN.md section 4 for the experiment index) and records the repo's
// machine-readable perf trajectory.
//
// Usage:
//
//	gfbench -exp table9
//	gfbench -exp all -scale 2
//	gfbench -json BENCH_5.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"graphflow/internal/bench"
	"graphflow/internal/logx"
)

// jsonReport is the BENCH_*.json file shape: a stamped header plus one
// row per (workload, engine) pair.
type jsonReport struct {
	GeneratedAt string              `json:"generated_at"`
	Scale       int                 `json:"scale"`
	Results     []bench.MicroResult `json:"results"`
}

func runJSON(path string, scale int) error {
	results, err := bench.Micro(scale)
	if err != nil {
		return err
	}
	rep := jsonReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scale,
		Results:     results,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-14s %-12s %-13s workers=%d  %12.0f ns/op %8d allocs/op  matches=%d\n",
			r.Name, r.Graph, r.Engine, r.Workers, r.NsPerOp, r.AllocsPerOp, r.Matches)
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(results))
	return nil
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (table3..table13, fig7..fig11) or 'all'")
		ablation = flag.String("ablation", "", "ablation id (see -list) or 'all'")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		list     = flag.Bool("list", false, "list available experiments and ablations")
		jsonOut  = flag.String("json", "", "run the machine-readable micro suite and write results to this file")
		logFmt   = flag.String("log-format", "text", `structured log rendering: "text" or "json"`)
	)
	flag.Parse()
	if _, err := logx.Setup(*logFmt, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gfbench:", err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := runJSON(*jsonOut, *scale); err != nil {
			slog.Error("micro suite failed", "err", err)
			os.Exit(1)
		}
		return
	}
	if *list || (*exp == "" && *ablation == "") {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.About)
		}
		fmt.Println("available ablations (-ablation):")
		for _, a := range bench.Ablations() {
			fmt.Printf("  %-16s %s\n", a.Name, a.About)
		}
		if *exp == "" && *ablation == "" {
			os.Exit(2)
		}
		return
	}
	if *ablation != "" {
		if err := bench.RunAblation(*ablation, os.Stdout, *scale); err != nil {
			slog.Error("ablation failed", "ablation", *ablation, "err", err)
			os.Exit(1)
		}
		return
	}
	if err := bench.Run(*exp, os.Stdout, *scale); err != nil {
		slog.Error("experiment failed", "exp", *exp, "err", err)
		os.Exit(1)
	}
}

// Command gfbench regenerates the paper's tables and figures (-list
// prints the experiment index) and runs the ablations.
//
// Usage:
//
//	gfbench -exp table9
//	gfbench -exp all -scale 2
//	gfbench -ablation adaptive-cap
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"graphflow/internal/bench"
	"graphflow/internal/logx"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (table3..table13, fig7..fig11) or 'all'")
		ablation = flag.String("ablation", "", "ablation id (see -list) or 'all'")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		list     = flag.Bool("list", false, "list available experiments and ablations")
		logFmt   = flag.String("log-format", "text", `structured log rendering: "text" or "json"`)
	)
	flag.Parse()
	if _, err := logx.Setup(*logFmt, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gfbench:", err)
		os.Exit(2)
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

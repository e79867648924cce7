// Command gfcatalogue builds, saves, and inspects subgraph catalogues
// (paper Section 5).
//
// Usage:
//
//	gfcatalogue -dataset Amazon -z 1000 -h 3 -out amazon.cat
//	gfcatalogue -in amazon.cat -inspect
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/logx"
)

func main() {
	var (
		dataFile = flag.String("data", "", "edge-list file to load")
		dsName   = flag.String("dataset", "", "built-in dataset name")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		z        = flag.Int("z", 1000, "sampled edges per chain")
		h        = flag.Int("h", 3, "max base subquery size")
		out      = flag.String("out", "", "write the catalogue as JSON to this file")
		in       = flag.String("in", "", "load a catalogue from this file instead of building")
		inspect  = flag.Bool("inspect", false, "print a summary of the catalogue")
		logFmt   = flag.String("log-format", "text", `structured log rendering: "text" or "json"`)
	)
	flag.Parse()
	if _, err := logx.Setup(*logFmt, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gfcatalogue:", err)
		os.Exit(2)
	}

	var cat *catalogue.Catalogue
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		cat, err = catalogue.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		var g *graph.Graph
		switch {
		case *dataFile != "":
			f, err := os.Open(*dataFile)
			if err != nil {
				fatal(err)
			}
			var lerr error
			g, lerr = graph.LoadEdgeList(f)
			f.Close()
			if lerr != nil {
				fatal(lerr)
			}
		case *dsName != "":
			g = datagen.ByName(*dsName, *scale)
			if g == nil {
				fatal(fmt.Errorf("unknown dataset %q", *dsName))
			}
		default:
			fmt.Fprintln(os.Stderr, "gfcatalogue: one of -data, -dataset or -in is required")
			os.Exit(2)
		}
		fmt.Printf("building catalogue (h=%d z=%d) for %v...\n", *h, *z, g)
		cat = catalogue.Build(g, catalogue.Config{H: *h, Z: *z})
	}

	fmt.Printf("catalogue: %d extension entries, %d vertices indexed\n", cat.Len(), cat.NumVertices)
	if *inspect {
		type row struct {
			key catalogue.Key
			mu  float64
		}
		var rows []row
		for k, e := range cat.All() {
			rows = append(rows, row{k, e.Mu})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].mu > rows[j].mu })
		if len(rows) > 20 {
			rows = rows[:20]
		}
		fmt.Println("top entries by selectivity µ:")
		for _, r := range rows {
			fmt.Printf("  µ=%8.3f  %s\n", r.mu, r.key)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := cat.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	slog.Error("gfcatalogue failed", "err", err)
	os.Exit(1)
}

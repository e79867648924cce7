package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// spec is the part of BENCHMARK.json the A/A check needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runAA runs two interleaved sets (A B B A ...) of n full untraced runs of
// this very build, run i of either set at seed cfg.seed+i, and prints for
// every workload and end-to-end metric both sets' medians and spreads, how
// much worse B's median is than A's, and the bound from BENCHMARK.json (read
// from the working directory). Two sets of identical code must agree within
// the bounds; that they do is what makes a later difference between two
// commits readable.
func runAA(n int, cfg runConfig) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the A/A check reads its bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := workloadNames()
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	// values[workload][metric][set] are the per-run values.
	values := map[string]map[string][2][]float64{}
	done := [2]int{}
	for k := 0; k < 2*n; k++ {
		set := [4]int{0, 1, 1, 0}[k%4]
		seed := cfg.seed + int64(done[set])
		done[set]++
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "aa: set %c run %d/%d %s seed %d\n", 'A'+set, done[set], n, w, seed)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to end
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rr runResult
			if err := json.Unmarshal(lines[len(lines)-1], &rr); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !rr.Correct {
				return fmt.Errorf("%s seed %d: run reported failed ops", w, seed)
			}
			if values[w] == nil {
				values[w] = map[string][2][]float64{}
			}
			for name, m := range rr.Metrics {
				sets := values[w][name]
				sets[set] = append(sets[set], m.Value)
				values[w][name] = sets
			}
		}
	}

	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	violations := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			sets := values[w][m.Name]
			a, b := median(sets[0]), median(sets[1])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			sa, sb := quartileSpread(sets[0]), quartileSpread(sets[1])
			verdict := "ok"
			// setup_s is held to its bound on the medians only: it is the
			// median of three samples per run, not of hundreds.
			if worse > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "VIOLATION"
				violations++
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w, m.Name, a, b, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if violations > 0 {
		return errors.New(strconv.Itoa(violations) + " workload x metric pairs outside their bound")
	}
	return nil
}

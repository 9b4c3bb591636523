package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness command reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSteady runs each workload several times, seeds 1..runs, each run in
// its own process for BENCHMARK.json's run_seconds, and prints every
// end-to-end metric's median, quartiles and spread ((Q3 - Q1) / median)
// beside the bound BENCHMARK.json fixes.
func runSteady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	specPath := fs.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\tverdict")
	var problems []error
	for _, w := range names {
		values := map[string][]float64{}
		shares := map[string]int{}
		for i := 0; i < *runs; i++ {
			seed := int64(i + 1)
			res, err := runOnce(exe, w, seed, spec.RunSeconds)
			if err != nil {
				problems = append(problems, fmt.Errorf("%s seed %d: %w", w, seed, err))
				continue
			}
			if !res.Correct {
				problems = append(problems, fmt.Errorf("%s seed %d: correct is false", w, seed))
			}
			shares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)]++
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d:", w, seed)
			for _, m := range spec.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.6g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "WIDER THAN BOUND"
			case spread > m.Bound/3:
				verdict = "within bound, above a third"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n",
				w, m.Name, m.Unit, med, q1, q3, spread, m.Bound, verdict)
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t\t%s\t\t\t\t\t\n", w, formatShares(shares))
	}
	tw.Flush()
	return errors.Join(problems...)
}

// runOnce runs one workload in a child process and parses its result line.
func runOnce(exe, workload string, seed int64, seconds int) (*resultLine, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

// formatShares lists the distinct failed/attempted pairs seen, in order.
func formatShares(shares map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(shares) {
		parts = append(parts, fmt.Sprintf("%s x%d", k, shares[k]))
	}
	return strings.Join(parts, ", ")
}

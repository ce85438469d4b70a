package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the median it may worsen by
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict judges one workload x metric pair of two result files. worse is
// how far b's median is on the wrong side of a's, as a share of a's; spread
// is the wider of the two files' interquartile ranges as a share of their
// medians. A difference beyond the bound that the spread could explain is
// unresolved, not a regression — and so is a spread wider than the bound
// with no difference to show, because it could hide one.
func verdict(m metricSpec, a, b row) (worse, spread float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if m.Better == "higher" {
			worse = -worse
		}
	}
	for _, r := range []row{a, b} {
		if r.Median != 0 {
			if s := (r.Q3 - r.Q1) / r.Median; s > spread {
				spread = s
			}
		}
	}
	switch {
	case spread > m.Bound:
		return worse, spread, "unresolved"
	case worse > m.Bound:
		return worse, spread, "regressed"
	default:
		return worse, spread, "ok"
	}
}

// compare prints one row per workload x end-to-end metric and counts the
// verdicts.
func compare(w io.Writer, spec benchSpec, a, b resultFile) (regressed, unresolved int, err error) {
	find := func(f resultFile, workload, name string) (row, bool) {
		for _, r := range f.Rows {
			if r.Workload == workload && r.Name == name && r.Kind == "end_to_end" {
				return r, true
			}
		}
		return row{}, false
	}
	fmt.Fprintf(w, "%-12s %-20s %-5s %12s %12s %12s %12s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "unit",
		"a.median", "a.q1", "a.q3", "b.median", "b.q1", "b.q3", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ra, okA := find(a, wl.Name, m.Name)
			rb, okB := find(b, wl.Name, m.Name)
			if !okA || !okB {
				return 0, 0, fmt.Errorf("%s on %s is missing from a result file", m.Name, wl.Name)
			}
			worse, spread, v := verdict(m, ra, rb)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-12s %-20s %-5s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, ra.Median, ra.Q1, ra.Q3, rb.Median, rb.Q1, rb.Q3,
				100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	return regressed, unresolved, nil
}

// cmdCompare applies each end-to-end metric's bound from BENCHMARK.json to
// two result files and exits non-zero when b regressed against a.
func cmdCompare(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration that holds the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchmark compare [-spec BENCHMARK.json] <a.json> <b.json>")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := readResultFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readResultFile(fs.Arg(1))
	if err != nil {
		return err
	}
	regressed, _, err := compare(stdout, spec, a, b)
	if err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed", regressed)
	}
	return nil
}

// cmdSelfcheck measures the same tree twice and compares the two result
// files: every pair must come out ok — a regression or an unresolved pair
// between two runs of one commit means the benchmark, not the program, is
// at fault — and no operation may fail.
func cmdSelfcheck(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration that holds the bounds")
	seed := fs.Int64("seed", 1, "first seed of both sets of runs")
	repeat := fs.Int("repeat", 5, "runs per workload in each set")
	dir := fs.String("dir", ".bench_out", "directory for selfcheck-a.json, selfcheck-b.json and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	files := []string{filepath.Join(*dir, "selfcheck-a.json"), filepath.Join(*dir, "selfcheck-b.json")}
	var sets []resultFile
	for _, file := range files {
		err := cmdRun([]string{"-workload", "all", "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(spec.RunSeconds),
			"-repeat", fmt.Sprint(*repeat), "-dir", *dir, "-out", file}, stdout, stderr)
		if err != nil {
			return err
		}
		f, err := readResultFile(file)
		if err != nil {
			return err
		}
		sets = append(sets, f)
	}
	regressed, unresolved, err := compare(stdout, spec, sets[0], sets[1])
	if err != nil {
		return err
	}
	if regressed+unresolved > 0 {
		return fmt.Errorf("two sets of runs of one tree disagree on %d pairs", regressed+unresolved)
	}
	return nil
}

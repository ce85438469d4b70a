// Command benchmark measures ExDRa-Go end to end and layer by layer on four
// federated workloads, as BENCHMARK.json at the repository root declares.
//
//	go run ./benchmark run -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-repeat <k>] [-out <file.json>] [-dir <dir>]
//	go run ./benchmark compare <a.json> <b.json>
//	go run ./benchmark selfcheck [-seed <n>] [-repeat <k>] [-dir <dir>]
//
// README.md in this directory describes the workloads, the metrics and how
// they interact.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: benchmark run|compare|selfcheck [flags]")
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:], stdout, stderr)
	case "compare":
		err = cmdCompare(args[1:], stdout, stderr)
	case "selfcheck":
		err = cmdSelfcheck(args[1:], stdout, stderr)
	default:
		err = fmt.Errorf("unknown command %q (want run, compare or selfcheck)", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errFailedChecks makes a run with failed operations exit non-zero after
// it printed its result.
var errFailedChecks = fmt.Errorf("operations failed or outputs were wrong")

// cmdRun runs one workload in this process, or — for `-workload all` or
// `-repeat` above one — every requested run in a fresh child process each,
// so that peak_rss_mb and garbage-collector state do not leak across runs.
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the data generators; the program under test receives only generated inputs")
	seconds := fs.Int("seconds", defaultSeconds, "how long one run keeps starting timed passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	repeat := fs.Int("repeat", 1, "runs per workload, each with its own seed (seed, seed+1, ...)")
	out := fs.String("out", "", "write the result file here")
	dir := fs.String("dir", ".bench_out", "directory for scratch files and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("run: unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		return fmt.Errorf("run: want -seconds >= 1, -trace 0 or 1, -repeat >= 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	if *name != "all" && *repeat == 1 {
		cfg := config{workload: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
			dir: *dir, shapes: fullShapes()}
		rec, spans, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		if cfg.trace {
			if err := writeSpans(filepath.Join(*dir, "trace-"+rec.Workload+".json"), spans); err != nil {
				return err
			}
		}
		return report(stdout, captureEnv(*seed, *seconds, 1), []runRecord{rec}, *out, true)
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []runRecord
	for _, n := range names {
		for i := 0; i < *repeat; i++ {
			rec, err := runChild(self, n, *seed+int64(i), *seconds, *trace, *dir, stderr)
			if err != nil {
				return err
			}
			runs = append(runs, rec)
		}
	}
	return report(stdout, captureEnv(*seed, *seconds, *repeat), runs, *out, false)
}

// runChild runs one workload once in a child process and reads its record
// back from the result file the child writes.
func runChild(self, name string, seed int64, seconds, trace int, dir string, stderr io.Writer) (runRecord, error) {
	file := filepath.Join(dir, fmt.Sprintf("run-%d-%s.json", os.Getpid(), name))
	defer os.Remove(file)
	cmd := exec.Command(self, "run", "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-dir", dir, "-out", file)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, stderr
	runErr := cmd.Run()
	f, err := readResultFile(file)
	if err != nil || len(f.Runs) != 1 {
		if runErr != nil {
			return runRecord{}, fmt.Errorf("%s (seed %d): %w", name, seed, runErr)
		}
		return runRecord{}, fmt.Errorf("%s (seed %d): child wrote no result: %v", name, seed, err)
	}
	return f.Runs[0], nil
}

// report prints every metric by name with its unit, writes the result file
// and, for a single run, ends with the contract's one-line JSON object. It
// returns an error when any operation failed.
func report(stdout io.Writer, env environment, runs []runRecord, out string, single bool) error {
	f := resultFile{Env: env, Runs: runs, Rows: buildRows(runs)}
	printRows(stdout, f.Rows)
	failed := false
	for _, r := range runs {
		fmt.Fprintf(stdout, "%s seed=%d: passes=%d setups=%d interactive_samples=%d attempted=%d failed=%d fail_ratio=%g load1=%.2f noisy=%v\n",
			r.Workload, r.Seed, r.Passes, r.Setups, r.Samples, r.Attempted, r.Failed, r.FailRatio, r.Load1, r.Noisy)
		for _, why := range r.Failures {
			fmt.Fprintf(stdout, "  failed: %s\n", why)
		}
		failed = failed || r.Failed > 0
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	if out != "" {
		if err := writeResultFile(out, f); err != nil {
			return err
		}
	}
	if single {
		fmt.Fprintln(stdout, contractLine(runs[0]))
	}
	if failed {
		return errFailedChecks
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one measured value of one run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is what one run of one workload produced.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	// Passes is the number of timed passes behind pass_s (session B's
	// cycles on serve-mixed); Samples the number of interactive operations
	// behind interactive_ms_*; Setups the number of set-ups behind setup_s.
	Passes  int `json:"passes"`
	Samples int `json:"samples"`
	Setups  int `json:"setups"`
	// PassSeconds, PassPeakMB and SetupSeconds are the samples behind
	// pass_s, peak_rss_mb and setup_s.
	PassSeconds  []float64 `json:"pass_seconds,omitempty"`
	PassPeakMB   []float64 `json:"pass_peak_mb,omitempty"`
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	// Attempted and Failed count operations: one step of a pass or one
	// session operation; a failed correctness check fails its operation.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Failures  []string `json:"failures,omitempty"` // the first few, for diagnosis
	// Load1 is the 1-minute load average when the run started; Noisy flags
	// a run that started with more runnable work than processors.
	Load1   float64           `json:"load1"`
	Noisy   bool              `json:"noisy"`
	Metrics map[string]metric `json:"metrics"`
}

// environment is where a result file was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Repeat     int    `json:"repeat"`
	Started    string `json:"started"`
}

// row is one workload x metric line of a result file: the median and
// quartiles of the metric over the file's runs of that workload (N runs).
type row struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Kind     string  `json:"kind"` // "end_to_end" or "per_layer"
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
}

// resultFile is what `run -out` writes and `compare` reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
	Rows []row       `json:"rows"`
}

// buildRows folds runs into one row per workload x metric, in the order
// workloads ran and metrics sort.
func buildRows(runs []runRecord) []row {
	type key struct{ workload, name string }
	values := map[key][]float64{}
	units := map[key]string{}
	kinds := map[key]string{}
	var order []key
	for _, r := range runs {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := key{r.Workload, name}
			if _, seen := values[k]; !seen {
				order = append(order, k)
			}
			values[k] = append(values[k], r.Metrics[name].Value)
			units[k] = r.Metrics[name].Unit
			kinds[k] = "end_to_end"
			if r.Trace {
				kinds[k] = "per_layer"
			}
		}
	}
	rows := make([]row, 0, len(order))
	for _, k := range order {
		q1, q3 := quartiles(values[k])
		rows = append(rows, row{Name: k.name, Unit: units[k], Workload: k.workload, Kind: kinds[k],
			N: len(values[k]), Median: median(values[k]), Q1: q1, Q3: q3})
	}
	return rows
}

// printRows prints every metric by name with its unit.
func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-12s %-36s %-8s %3s %14s %14s %14s\n", "workload", "metric", "unit", "n", "median", "q1", "q3")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-36s %-8s %3d %14.6g %14.6g %14.6g\n",
			r.Workload, r.Name, r.Unit, r.N, r.Median, r.Q1, r.Q3)
	}
}

// contractLine is the last line of a single-workload run's standard
// output, in the shape the benchmark contract fixes.
func contractLine(r runRecord) string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return "{}" // unreachable: the struct holds only numbers and strings
	}
	return string(b)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func writeResultFile(path string, f resultFile) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// captureEnv records where the numbers come from. A checkout that is not a
// git repository has commit "unknown".
func captureEnv(seed int64, seconds, repeat int) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Repeat: repeat,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// loadAverage1 reads the 1-minute load average (0 where /proc is absent).
func loadAverage1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// resetPeakRSS restarts the kernel's peak-resident-set watermark of this
// process, so that the next peakRSSMB reads the peak since now. Where
// /proc/self/clear_refs cannot be written the watermark keeps rising and
// every reading is the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return 0, fmt.Errorf("VmHWM: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

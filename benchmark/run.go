package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"exdra/internal/fedtest"
	"exdra/internal/netem"
	"exdra/internal/obs"
)

// shapes sizes the workloads. fullShapes is what the benchmark measures;
// tinyShapes exists only so that `go test ./benchmark` runs in seconds.
type shapes struct {
	lanRows, lanCols int // lan-train X
	wanRows, wanCols int // wan-train X
	// raw-ingest: the paper-production table and the Public bulk matrix.
	ingestRows, ingestSignals, ingestRecipes int
	bulkRows, bulkCols                       int
	// serve-mixed: session A's matrix and session B's bulk matrix.
	serveRows, serveCols         int
	serveBulkRows, serveBulkCols int
	// kernelRows x kernelCols is the partition the layer probes run on.
	kernelRows, kernelCols int
	transferRows           int // rows x kernelCols matrix of the fedrpc MB/s probes
	// setups is how often an end-to-end run sets up; lanOps / wanOps how
	// many interactive operations it times on an unshaped / shaped link.
	setups, lanOps, wanOps int
	layerReps              int // repetitions behind each layer probe's median
}

// minPasses is the fewest timed passes a run makes, however long one takes:
// the second is what the first is checked against.
const minPasses = 2

func fullShapes() shapes {
	return shapes{
		lanRows: 40000, lanCols: 100,
		wanRows: 4000, wanCols: 60,
		ingestRows: 60000, ingestSignals: 20, ingestRecipes: 40,
		bulkRows: 20000, bulkCols: 100,
		serveRows: 20000, serveCols: 50,
		serveBulkRows: 5000, serveBulkCols: 100,
		kernelRows: 20000, kernelCols: 100, transferRows: 10000,
		setups: 3, lanOps: 360, wanOps: 200, layerReps: 7,
	}
}

func tinyShapes() shapes {
	return shapes{
		lanRows: 600, lanCols: 12,
		wanRows: 400, wanCols: 8,
		ingestRows: 400, ingestSignals: 4, ingestRecipes: 6,
		bulkRows: 300, bulkCols: 10,
		serveRows: 300, serveCols: 8,
		serveBulkRows: 200, serveBulkCols: 10,
		kernelRows: 400, kernelCols: 12, transferRows: 200,
		setups: 1, lanOps: 24, wanOps: 24, layerReps: 1,
	}
}

// config is one run's input.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch files and span files, inside the checkout
	shapes   shapes
	// link overrides the workload's emulated link when set (the test runs
	// the shaped workloads on a faster link, uncalibrated).
	link *netem.Config
	// corrupt perturbs one locally computed expected value, so that the
	// test can see a failed check reach fail_ratio and the exit code.
	corrupt bool
}

// run is the state of one run of one workload.
type run struct {
	cfg config
	rec runRecord
	tr  *tracer       // nil but during the traced pass
	reg *obs.Registry // the current cluster's isolated registry

	stepFailed map[string]bool // steps of the current pass already counted as failed
	spans      []span
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

// workloads lists the four workloads in the order `-workload all` runs them.
// The why lines are the ones BENCHMARK.json carries.
func workloads() []workload {
	return []workload{
		{"lan-train", "compute-bound: six training steps on 40000x100 over an unshaped link, so kernel and interpreter gains show here and the wire does little", runTrain},
		{"wan-train", "the same six steps on 4000x60 at 45 ms RTT and 1.7 MB/s, so only fewer round trips or fewer bytes help and a kernel speed-up must not move it", runTrain},
		{"raw-ingest", "raw CSV at the sites: cold and cached READ, transformencode, P2 pipeline and multi-MB PUT/GET/frame transfers, so CSV parse, transform, lineage and codec dominate", runIngest},
		{"serve-mixed", "two sessions share one pipelined connection per worker at 10 ms RTT and 20 MB/s: interactive latency against bulk transfer shows on the same run", runServe},
	}
}

// set records a metric of this run.
func (r *run) set(name, unit string, v float64) {
	r.rec.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(step string, err error) {
	r.rec.Failed++
	if len(r.rec.Failures) < 8 {
		r.rec.Failures = append(r.rec.Failures, step+": "+err.Error())
	}
}

// quiet returns a run that shares r's input and registry but whose
// operations are not counted: warm-ups and the local baseline use it.
func (r *run) quiet() *run {
	return &run{cfg: r.cfg, reg: r.reg, rec: runRecord{Metrics: map[string]metric{}}}
}

// firstFailure turns a quiet run's first failed operation into an error.
func (r *run) firstFailure() error {
	if len(r.rec.Failures) == 0 {
		return nil
	}
	return fmt.Errorf("%s", r.rec.Failures[0])
}

// beginPass resets the per-pass failure bookkeeping.
func (r *run) beginPass() { r.stepFailed = map[string]bool{} }

// step runs one operation of a pass: it is timed, spanned when tracing,
// counted as attempted, and counted as failed when fn returns an error.
func (r *run) step(name string, fn func() error) time.Duration {
	var before obs.Snapshot
	id := r.tr.begin(name)
	if r.tr != nil {
		before = r.reg.Snapshot()
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if r.tr != nil {
		r.tr.end(id, foldCounts(r.reg.Snapshot().Diff(before)))
	}
	r.rec.Attempted++
	if err != nil {
		r.stepFailed[name] = true
		r.fail(name, err)
	}
	return d
}

// check attributes a correctness check, made after the pass's clock
// stopped, to the step whose output it checks: a failed check fails that
// operation once.
func (r *run) check(step string, err error) {
	if err == nil || r.stepFailed[step] {
		return
	}
	r.stepFailed[step] = true
	r.fail(step, err)
}

// foldCounts reduces a registry diff to the exact counts and busy-second
// sums the per-layer metrics are built from.
func foldCounts(d obs.Snapshot) map[string]float64 {
	c := map[string]float64{
		"rpc_calls": float64(d.Counters["rpc.client.calls"]),
		"bytes_out": float64(d.Counters["rpc.client.bytes_out"]),
		"bytes_in":  float64(d.Counters["rpc.client.bytes_in"]),
		"retries":   float64(d.Counters["fed.retries"]),
	}
	for name, v := range d.Counters {
		if strings.HasPrefix(name, "rpc.client.requests.") {
			c["requests"] += float64(v)
		}
	}
	for _, phase := range []string{"queue", "encode", "network", "execute", "decode"} {
		c["phase_"+phase+"_s"] = d.Histograms["rpc.client.phase."+phase].Sum
	}
	for name, h := range d.Histograms {
		if strings.HasPrefix(name, "worker.inst_seconds.") {
			c["worker_exec_s"] += h.Sum
		}
	}
	c["worker_udf_s"] = d.Histograms["worker.handle_seconds.EXEC_UDF"].Sum
	return c
}

// objectCounts returns every worker's symbol-table size.
func objectCounts(cl *fedtest.Cluster) []int {
	n := make([]int, len(cl.Workers))
	for i, w := range cl.Workers {
		n[i] = w.NumObjects()
	}
	return n
}

// clearWorkers is the last operation of every pass, outside its clock: the
// algorithm scripts and the pipeline leave their federated intermediates
// at the workers, as a DML script does until its session ends, so the
// coordinator clears its worker-side state, and the operation fails unless
// each worker's object count is back at its pre-pass value.
func clearWorkers(r *run, cl *fedtest.Cluster, before []int) {
	r.step("cleanup", func() error {
		if err := cl.Coord.ClearAll(); err != nil {
			return err
		}
		for i, n := range objectCounts(cl) {
			if n != before[i] {
				return fmt.Errorf("worker %d holds %d objects after the pass, %d before it", i, n, before[i])
			}
		}
		return nil
	})
}

// startCluster starts 2 in-process workers on loopback TCP behind link,
// with one connection per worker and an isolated registry.
func (r *run) startCluster(link netem.Config, window int, baseDirs []string) (*fedtest.Cluster, error) {
	r.reg = obs.New()
	return fedtest.Start(fedtest.Config{Workers: 2, Netem: link, Metrics: r.reg,
		PoolSize: 1, Window: window, BaseDirs: baseDirs})
}

// repeatSetup sets up cfg.shapes.setups times (once when tracing), tearing
// every set-up but the last down again, and records the median as setup_s:
// one set-up is too short and too noisy to gate on.
func (r *run) repeatSetup(setup func() (teardown func(), err error)) (func(), error) {
	n := r.cfg.shapes.setups
	if r.cfg.trace || n < 1 {
		n = 1
	}
	var times []float64
	var teardown func()
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
			// Return the torn-down set-up's memory before the next one
			// allocates, so that peak_rss_mb is one set-up's, not three.
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if teardown, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.rec.Setups, r.rec.SetupSeconds = n, times
	if !r.cfg.trace {
		r.set("setup_s", "s", median(times))
	}
	return teardown, nil
}

// clocked runs one timed pass between a reset of the process's peak-RSS
// watermark and a reading of it, and keeps the pass's wall seconds and its
// peak as samples.
func (r *run) clocked(pass func() time.Duration) error {
	resetPeakRSS()
	wall := pass()
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.rec.PassSeconds = append(r.rec.PassSeconds, wall.Seconds())
	r.rec.PassPeakMB = append(r.rec.PassPeakMB, peak)
	return nil
}

// setPasses records the medians over the timed passes: pass_s, and
// peak_rss_mb, the peak resident set of the process during a pass. The
// peak over the whole process would be one reading per run and jumps with
// the garbage collector's timing; the median over passes does not.
func (r *run) setPasses() {
	r.rec.Passes = len(r.rec.PassSeconds)
	if !r.cfg.trace {
		r.set("pass_s", "s", median(r.rec.PassSeconds))
		r.set("peak_rss_mb", "MB", median(r.rec.PassPeakMB))
	}
}

// passBudget is how long the timed passes of a run may keep starting: the
// interactive operations that follow take the rest of --seconds. A traced
// run takes half of it, which leaves room for the traced pass and the layer
// probes.
func (r *run) passBudget() time.Duration {
	budget := time.Duration(r.cfg.seconds * 0.7 * float64(time.Second))
	if r.cfg.trace {
		budget /= 2
	}
	return budget
}

// scratchDir makes this run's directory for raw files inside the checkout.
func (r *run) scratchDir() (string, error) {
	dir := filepath.Join(r.cfg.dir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// runWorkload runs one workload in this process and returns its record.
func runWorkload(cfg config) (runRecord, []span, error) {
	var w *workload
	for _, c := range workloads() {
		if c.name == cfg.workload {
			c := c
			w = &c
		}
	}
	if w == nil {
		return runRecord{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	load := loadAverage1()
	r := &run{cfg: cfg, rec: runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Load1: load, Noisy: load > float64(runtime.NumCPU()), Metrics: map[string]metric{},
	}}
	r.beginPass()
	if err := w.run(r); err != nil {
		return r.rec, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.rec.Attempted > 0 {
		r.rec.FailRatio = float64(r.rec.Failed) / float64(r.rec.Attempted)
	}
	if cfg.trace {
		fillMissingLayerMetrics(r)
	}
	return r.rec, r.spans, nil
}

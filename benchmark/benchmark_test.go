package main

import (
	"io"
	"math"
	"regexp"
	"testing"
	"time"

	"exdra/internal/netem"
)

// tinyConfig is a run at the tiny scale: a fraction of a second of passes
// on small matrices, the shaped workloads on a fast link, no link
// calibration.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, dir: t.TempDir(),
		shapes: tinyShapes(), link: &netem.Config{RTT: time.Millisecond, BandwidthBps: 200e6}}
}

func mustRun(t *testing.T, cfg config) (runRecord, []span) {
	t.Helper()
	rec, spans, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return rec, spans
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json against what the program
// knows: workloads and their reasons, run length, and every per-layer name
// and unit.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i,
				spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(layers))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := layers[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s [%s]: the program has unit %q (known: %v)", m.Name, m.Unit, unit, ok)
		}
	}
	var hasSetup bool
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// TestEveryMetricEmitted runs all four workloads at the tiny scale, once
// untraced and once traced, and checks that each run emits exactly the
// metrics BENCHMARK.json names for its mode, with their units, that no
// operation failed, and that the counts repeat on a second run of the seed.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			rec, _ := mustRun(t, tinyConfig(t, w.name, trace))
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !nameOK.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %g", w.name, m.Name, got.Value)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s is %g", w.name, m.Name, got.Value)
				}
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			if w.name != "lan-train" {
				continue
			}
			// Calls and requests are exact counts. Bytes are exact but for
			// the envelope's variable-length integers (see checkWire).
			again, _ := mustRun(t, tinyConfig(t, w.name, trace))
			for name, tol := range map[string]float64{"wire_mb": 0.001, "federated.rpc_calls": 0, "federated.requests": 0} {
				a, ok := rec.Metrics[name]
				if b := again.Metrics[name]; ok && math.Abs(a.Value-b.Value) > tol*a.Value {
					t.Errorf("%s: %s is %g on one run of the seed and %g on the next", w.name, name, a.Value, b.Value)
				}
			}
		}
	}
}

// TestCorruptedExpectationFails perturbs a locally computed expected value:
// the run must count failed operations, and reporting it must return the
// error that becomes the non-zero exit code.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range []string{"lan-train", "raw-ingest"} {
		cfg := tinyConfig(t, name, false)
		cfg.corrupt = true
		rec, _ := mustRun(t, cfg)
		if rec.Failed == 0 || rec.FailRatio <= 0 {
			t.Errorf("%s: corrupted expectation went unnoticed: failed=%d fail_ratio=%g", name, rec.Failed, rec.FailRatio)
		}
		if err := report(io.Discard, environment{}, []runRecord{rec}, "", true); err == nil {
			t.Errorf("%s: a run with failed operations reports success", name)
		}
	}
	if code := realMain([]string{"run", "-workload", "no-such-workload"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}

// selfByName sums self time per span name over the descendants of root,
// root excluded.
func selfByName(spans []span, root int) map[string]float64 {
	under := map[int]bool{root: true}
	out := map[string]float64{}
	for _, s := range spans { // parents precede children in id order
		if s.ID != root && under[s.Parent] {
			under[s.ID] = true
			out[s.Name] += s.Self
		}
	}
	return out
}

// TestSpanSelfTimesAddUp checks the attribution identity of a traced pass:
// the self times of every span under the pass, plus the pass's own
// unattributed time, equal the pass's wall time.
func TestSpanSelfTimesAddUp(t *testing.T) {
	for _, name := range []string{"lan-train", "raw-ingest"} {
		rec, spans := mustRun(t, tinyConfig(t, name, true))
		root := -1
		for _, s := range spans {
			if s.Name == "pass" {
				root = s.ID
			}
		}
		if root < 0 {
			t.Fatalf("%s: no pass span among %d spans", name, len(spans))
		}
		total := rec.Metrics["trace.unattributed_s"].Value
		steps, ops := 0, 0
		for name, self := range selfByName(spans, root) {
			total += self
			if len(name) > 7 && name[:7] == "engine." {
				ops++
			} else {
				steps++
			}
		}
		wall := spans[root].End - spans[root].Start
		if math.Abs(total-wall) > 1e-6 {
			t.Errorf("%s: span self times + unattributed = %.9f s, pass wall = %.9f s", name, total, wall)
		}
		if steps < 6 || ops == 0 {
			t.Errorf("%s: %d step names and %d engine op names under the pass", name, steps, ops)
		}
		if got := rec.Metrics["engine.ops"].Value; got <= 0 {
			t.Errorf("%s: engine.ops = %g", name, got)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(xs, n=4) gives, which the benchmark contract uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 95); p != 19 {
		t.Errorf("p95 of 1..20 = %g", p)
	}
}

// TestVerdicts covers the three outcomes of compare.
func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "pass_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops", Better: "higher", Bound: 0.10}
	tight := func(m float64) row { return row{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		m    metricSpec
		a, b row
		want string
	}{
		{lower, tight(1), tight(1.05), "ok"},
		{lower, tight(1), tight(0.5), "ok"},
		{lower, tight(1), tight(1.2), "regressed"},
		{higher, tight(1), tight(0.8), "regressed"},
		{higher, tight(1), tight(1.2), "ok"},
		{lower, tight(1), row{Median: 1.2, Q1: 1.0, Q3: 1.4}, "unresolved"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s %s, a=%g, b=%g) = %s, want %s", c.m.Name, c.m.Better, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

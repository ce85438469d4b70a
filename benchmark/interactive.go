package main

import (
	"fmt"
	"math"
	"time"

	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// explorer issues the interactive operations of an exploratory session —
// colMeans, colSDs, sum, min and t(X)y, round robin — against a federated
// matrix and checks every answer: the first of each kind against the value
// computed locally beforehand, the later ones bitwise against the first.
//
// The issue's list also has max. It is min's instruction over again, and
// with it half the operations would be full aggregates and half column
// aggregates or a product: the pooled median would sit in the gap between
// two modes and jump from run to run. With five kinds it lies inside the
// column aggregates' mode and the 95th percentile inside t(X)y's.
type explorer struct {
	y     *matrix.Dense
	want  []*matrix.Dense // local answers, one per kind
	first []*matrix.Dense // first federated answers
}

var explorerOps = []struct {
	name string
	do   func(x engine.Mat, y *matrix.Dense) *matrix.Dense
}{
	{"colMeans", func(x engine.Mat, _ *matrix.Dense) *matrix.Dense {
		return engine.Local(engine.ColAgg(matrix.AggMean, x))
	}},
	{"colSDs", func(x engine.Mat, _ *matrix.Dense) *matrix.Dense {
		return engine.Local(engine.ColAgg(matrix.AggSD, x))
	}},
	{"sum", func(x engine.Mat, _ *matrix.Dense) *matrix.Dense {
		return matrix.RowVector([]float64{engine.Agg(matrix.AggSum, x)})
	}},
	{"min", func(x engine.Mat, _ *matrix.Dense) *matrix.Dense {
		return matrix.RowVector([]float64{engine.Agg(matrix.AggMin, x)})
	}},
	{"tXy", func(x engine.Mat, y *matrix.Dense) *matrix.Dense {
		return engine.Local(engine.TMatMul(x, y))
	}},
}

// answer runs operation kind on x, turning an engine failure into an error.
func answer(kind int, x engine.Mat, y *matrix.Dense) (out *matrix.Dense, err error) {
	defer engine.Guard(&err)
	return explorerOps[kind].do(x, y), nil
}

// newExplorer computes the expected answers on the local matrix.
func newExplorer(r *run, x, y *matrix.Dense) (*explorer, error) {
	e := &explorer{y: y, first: make([]*matrix.Dense, len(explorerOps))}
	for kind := range explorerOps {
		want, err := answer(kind, x, y)
		if err != nil {
			return nil, err
		}
		e.want = append(e.want, want)
	}
	if r.cfg.corrupt {
		e.want[0] = e.want[0].AddScalar(1)
	}
	return e, nil
}

// closeTo is the tolerance of the repository's federated aggregate tests
// (1e-9), taken relative for values above one.
func closeTo(got, want *matrix.Dense) bool {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return false
	}
	for i, w := range want.Data() {
		if math.Abs(got.Data()[i]-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return false
		}
	}
	return true
}

// op runs the i-th interactive operation on x and returns its latency in
// milliseconds; begin, when given, admits it to a service session first.
// The answer is checked after the clock stopped.
func (e *explorer) op(i int, x engine.Mat, begin func() (func(), error)) (float64, error) {
	kind := i % len(explorerOps)
	name := explorerOps[kind].name
	start := time.Now()
	if begin != nil {
		release, err := begin()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		defer release()
	}
	got, err := answer(kind, x, e.y)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return ms, fmt.Errorf("%s: %w", name, err)
	}
	if e.first[kind] == nil {
		e.first[kind] = got
		if !closeTo(got, e.want[kind]) {
			return ms, fmt.Errorf("%s differs from the locally computed value", name)
		}
	} else if !sameBits(got, e.first[kind]) {
		return ms, fmt.Errorf("%s differs bitwise from its first answer", name)
	}
	return ms, nil
}

// count books one finished interactive operation.
func (r *run) count(err error) {
	r.rec.Attempted++
	if err != nil {
		r.fail("interactive", err)
	}
}

// interactiveOps times a fixed number of interactive operations, one at a
// time, against fx and records interactive_ms_p50 and _p95: what a data
// scientist waits for one exploratory aggregate on this workload's data
// and link. The count leaves at least ten samples beyond the 95th
// percentile.
func interactiveOps(r *run, fx engine.Mat, x, y *matrix.Dense, shaped bool) error {
	e, err := newExplorer(r, x, y)
	if err != nil {
		return err
	}
	n := r.cfg.shapes.lanOps
	if shaped {
		n = r.cfg.shapes.wanOps
	}
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t, err := e.op(i, fx, nil)
		r.count(err)
		ms = append(ms, t)
	}
	r.setInteractive(ms)
	return nil
}

// setInteractive records the two interactive end-to-end metrics.
func (r *run) setInteractive(ms []float64) {
	r.rec.Samples = len(ms)
	r.set("interactive_ms_p50", "ms", median(ms))
	r.set("interactive_ms_p95", "ms", percentile(ms, 95))
}

package worker

import (
	"math"
	"math/rand"
	"testing"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

// TestInstructionOpcodes exercises every interpreter opcode directly via
// EXEC_INST, complementing the end-to-end Table 1 coverage test in
// internal/federated.
func TestInstructionOpcodes(t *testing.T) {
	w := New("")
	rng := rand.New(rand.NewSource(9))
	x := matrix.Rand(rng, 8, 5, 0.5, 2)
	u := matrix.Rand(rng, 8, 3, 0.5, 1)
	v := matrix.Rand(rng, 5, 3, 0.5, 1)
	wt := matrix.Rand(rng, 8, 5, 0, 1)
	put(t, w, 1, x, privacy.Public)
	put(t, w, 2, u, privacy.Public)
	put(t, w, 3, v, privacy.Public)
	put(t, w, 4, wt, privacy.Public)

	get := func(id int64) *matrix.Dense {
		m, err := w.Matrix(id)
		if err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
		return m
	}
	run := func(inst fedrpc.Instruction) {
		t.Helper()
		if r := exec(t, w, inst); !r.OK {
			t.Fatalf("%s: %s", inst.Opcode, r.Err)
		}
	}

	run(fedrpc.Instruction{Opcode: "wsloss", Inputs: []int64{1, 2, 3, 4}, Output: 10})
	if got := get(10).At(0, 0); math.Abs(got-matrix.WSLoss(x, u, v, wt)) > 1e-9 {
		t.Fatal("wsloss opcode")
	}
	run(fedrpc.Instruction{Opcode: "wcemm", Inputs: []int64{1, 2, 3}, Output: 11})
	if got := get(11).At(0, 0); math.Abs(got-matrix.WCEMM(x, u, v)) > 1e-9 {
		t.Fatal("wcemm opcode")
	}
	run(fedrpc.Instruction{Opcode: "wsigmoid", Inputs: []int64{1, 2, 3}, Output: 12})
	if !get(12).EqualApprox(matrix.WSigmoid(x, u, v), 1e-10) {
		t.Fatal("wsigmoid opcode")
	}
	run(fedrpc.Instruction{Opcode: "wdivmm", Inputs: []int64{1, 2, 3}, Output: 13})
	if !get(13).EqualApprox(matrix.WDivMM(x, u, v), 1e-9) {
		t.Fatal("wdivmm opcode")
	}
	run(fedrpc.Instruction{Opcode: "+*", Inputs: []int64{1, 4}, Output: 14, Scalars: []float64{2}})
	if !get(14).EqualApprox(x.PlusMult(2, wt), 1e-12) {
		t.Fatal("+* opcode")
	}
	run(fedrpc.Instruction{Opcode: "-*", Inputs: []int64{1, 4}, Output: 15, Scalars: []float64{2}})
	if !get(15).EqualApprox(x.MinusMult(2, wt), 1e-12) {
		t.Fatal("-* opcode")
	}
	a := matrix.ColVector([]float64{1, 2, 2})
	b := matrix.ColVector([]float64{1, 1, 2})
	put(t, w, 5, a, privacy.Public)
	put(t, w, 6, b, privacy.Public)
	run(fedrpc.Instruction{Opcode: "ctable", Inputs: []int64{5, 6}, Output: 16})
	if !get(16).EqualApprox(matrix.CTable(a, b, 0, 0), 0) {
		t.Fatal("ctable opcode")
	}
	run(fedrpc.Instruction{Opcode: "rbind", Inputs: []int64{5, 6}, Output: 17})
	if get(17).Rows() != 6 {
		t.Fatal("rbind opcode")
	}
	run(fedrpc.Instruction{Opcode: "cbind", Inputs: []int64{5, 6}, Output: 18})
	if get(18).Cols() != 2 {
		t.Fatal("cbind opcode")
	}
	run(fedrpc.Instruction{Opcode: "reshape", Inputs: []int64{5}, Output: 19, Scalars: []float64{1, 3}})
	if get(19).Rows() != 1 || get(19).Cols() != 3 {
		t.Fatal("reshape opcode")
	}
	run(fedrpc.Instruction{Opcode: "fill", Output: 20, Scalars: []float64{2, 2, 7}})
	if get(20).Sum() != 28 {
		t.Fatal("fill opcode")
	}
	run(fedrpc.Instruction{Opcode: "diag", Inputs: []int64{5}, Output: 21})
	if get(21).Trace() != 5 {
		t.Fatal("diag opcode")
	}
	run(fedrpc.Instruction{Opcode: "removeEmpty", Inputs: []int64{20}, Output: 22,
		Attrs: map[string]string{"margin": "cols"}})
	if get(22).Cols() != 2 {
		t.Fatal("removeEmpty cols opcode")
	}
	run(fedrpc.Instruction{Opcode: "uar_indexmax", Inputs: []int64{1}, Output: 23})
	if !get(23).EqualApprox(x.RowIndexMax(), 0) {
		t.Fatal("uar_indexmax opcode")
	}
	// Column-aggregate partial tuple layout: 5 x cols.
	run(fedrpc.Instruction{Opcode: "uac_partial", Inputs: []int64{1}, Output: 24})
	if p := get(24); p.Rows() != 5 || p.Cols() != x.Cols() {
		t.Fatal("uac_partial layout")
	}
	// Unknown row aggregate rejected.
	if r := exec(t, w, fedrpc.Instruction{Opcode: "uar_nope", Inputs: []int64{1}, Output: 25}); r.OK {
		t.Fatal("unknown row aggregate accepted")
	}
	// log_b binary.
	put(t, w, 7, matrix.Fill(1, 1, 8), privacy.Public)
	put(t, w, 8, matrix.Fill(1, 1, 2), privacy.Public)
	run(fedrpc.Instruction{Opcode: "log_b", Inputs: []int64{7, 8}, Output: 26})
	if math.Abs(get(26).At(0, 0)-3) > 1e-12 {
		t.Fatal("log_b opcode")
	}
}

// TestAllMappedOpcodes sweeps every binary, unary, and aggregate opcode the
// interpreter maps, comparing against the matrix kernels directly.
func TestAllMappedOpcodes(t *testing.T) {
	w := New("")
	rng := rand.New(rand.NewSource(10))
	x := matrix.Rand(rng, 6, 4, 0.5, 2)
	y := matrix.Rand(rng, 6, 4, 0.5, 2)
	put(t, w, 1, x, privacy.Public)
	put(t, w, 2, y, privacy.Public)
	next := int64(100)
	for name, op := range binaryOps {
		next++
		r := exec(t, w, fedrpc.Instruction{Opcode: name, Inputs: []int64{1, 2}, Output: next})
		if !r.OK {
			t.Fatalf("binary %s: %s", name, r.Err)
		}
		got, _ := w.Matrix(next)
		if !got.EqualApprox(x.Binary(op, y), 1e-12) {
			t.Fatalf("binary %s result", name)
		}
		// Scalar form with and without swap.
		next++
		r = exec(t, w, fedrpc.Instruction{Opcode: name, Inputs: []int64{1}, Output: next,
			Scalars: []float64{1.5}, Attrs: map[string]string{"swap": "1"}})
		if !r.OK {
			t.Fatalf("scalar %s: %s", name, r.Err)
		}
		got, _ = w.Matrix(next)
		if !got.EqualApprox(x.BinaryScalar(op, 1.5, true), 1e-12) {
			t.Fatalf("scalar %s result", name)
		}
		// Missing scalar operand is an error, not a panic.
		if r := exec(t, w, fedrpc.Instruction{Opcode: name, Inputs: []int64{1}, Output: next + 1}); r.OK {
			t.Fatalf("binary %s without operand accepted", name)
		}
	}
	for name, op := range unaryOps {
		next++
		r := exec(t, w, fedrpc.Instruction{Opcode: name, Inputs: []int64{1}, Output: next})
		if !r.OK {
			t.Fatalf("unary %s: %s", name, r.Err)
		}
		got, _ := w.Matrix(next)
		if !got.EqualApprox(x.Unary(op), 1e-12) {
			t.Fatalf("unary %s result", name)
		}
	}
	for name, op := range aggOps {
		next++
		r := exec(t, w, fedrpc.Instruction{Opcode: "uar_" + name, Inputs: []int64{1}, Output: next})
		if !r.OK {
			t.Fatalf("uar_%s: %s", name, r.Err)
		}
		got, _ := w.Matrix(next)
		if !got.EqualApprox(x.RowAgg(op), 1e-12) {
			t.Fatalf("uar_%s result", name)
		}
	}
}

// TestPartialRepliesCarryOnlyTheirStatistics pins what a site sends for an
// aggregate: the GET of an op's ua_partial or uac_partial holds only the
// statistics that op reads, one row each, bit for bit the local aggregate
// of that statistic. sum and mean send sums; var and sd sums and sums of
// squares; min minima and max maxima. Without an op the partials keep the
// (sum, sumsq, min, max, count) tuple: 1 x 5 and 5 x cols.
func TestPartialRepliesCarryOnlyTheirStatistics(t *testing.T) {
	w := New("")
	x := matrix.Randn(rand.New(rand.NewSource(5)), 11, 3, 0, 2)
	put(t, w, 1, x, privacy.Public)
	send := func(opcode string, attrs map[string]string) *matrix.Dense {
		t.Helper()
		resps := w.Handle([]fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: opcode, Inputs: []int64{1}, Output: 2, Attrs: attrs}},
			{Type: fedrpc.Get, ID: 2},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{2}}},
		})
		for _, r := range resps {
			if !r.OK {
				t.Fatalf("%s %v: %s", opcode, attrs, r.Err)
			}
		}
		return resps[1].Data.Matrix()
	}
	same := func(what string, got, want *matrix.Dense) {
		t.Helper()
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("%s sends %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for i, g := range got.Data() {
			if math.Float64bits(g) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("%s: cell %d is %v, want %v", what, i, g, want.Data()[i])
			}
		}
	}
	reads := map[string][]matrix.AggOp{
		"sum": {matrix.AggSum}, "mean": {matrix.AggSum},
		"var": {matrix.AggSum, matrix.AggSumSq}, "sd": {matrix.AggSum, matrix.AggSumSq},
		"min": {matrix.AggMin}, "max": {matrix.AggMax}, "sumsq": {matrix.AggSumSq},
	}
	for name, stats := range reads {
		var full, cols []*matrix.Dense
		for _, st := range stats {
			full = append(full, matrix.Fill(1, 1, x.Agg(st)))
			cols = append(cols, x.ColAgg(st))
		}
		same("ua_partial "+name, send("ua_partial", map[string]string{"op": name}), matrix.RBind(full...))
		same("uac_partial "+name, send("uac_partial", map[string]string{"op": name}), matrix.RBind(cols...))
	}
	n := float64(x.Rows())
	same("op-less uac_partial", send("uac_partial", nil), matrix.RBind(x.ColAgg(matrix.AggSum),
		x.ColAgg(matrix.AggSumSq), x.ColAgg(matrix.AggMin), x.ColAgg(matrix.AggMax), matrix.Fill(1, x.Cols(), n)))
	same("op-less ua_partial", send("ua_partial", nil), matrix.RowVector([]float64{x.Agg(matrix.AggSum),
		x.Agg(matrix.AggSumSq), x.Agg(matrix.AggMin), x.Agg(matrix.AggMax), float64(x.Size())}))
	if r := exec(t, w, fedrpc.Instruction{Opcode: "uac_partial", Inputs: []int64{1}, Output: 3,
		Attrs: map[string]string{"op": "median"}}); r.OK {
		t.Fatal("uac_partial with an unknown op accepted")
	}
}

// TestLeftIndex covers the one in-place instruction: a successful
// sub-block assignment, bounds rejection, and privacy laundering rejection
// (restricted source into a public target).
func TestLeftIndex(t *testing.T) {
	w := New("")
	put(t, w, 1, matrix.Fill(4, 4, 0), privacy.Public)
	put(t, w, 2, matrix.Fill(2, 2, 7), privacy.Public)

	if r := exec(t, w, fedrpc.Instruction{Opcode: "leftIndex", Inputs: []int64{1, 2}, Scalars: []float64{1, 2}}); !r.OK {
		t.Fatalf("leftIndex: %s", r.Err)
	}
	got, _ := w.Matrix(1)
	want := matrix.Fill(4, 4, 0)
	want.SetSlice(1, 2, matrix.Fill(2, 2, 7))
	if !got.EqualApprox(want, 0) {
		t.Fatalf("leftIndex result %v", got.Data())
	}

	// Out-of-range assignment errors instead of panicking the worker.
	if r := exec(t, w, fedrpc.Instruction{Opcode: "leftIndex", Inputs: []int64{1, 2}, Scalars: []float64{3, 3}}); r.OK {
		t.Fatal("out-of-range leftIndex accepted")
	}
	// Missing operands error.
	if r := exec(t, w, fedrpc.Instruction{Opcode: "leftIndex", Inputs: []int64{1}, Scalars: []float64{0, 0}}); r.OK {
		t.Fatal("leftIndex without source accepted")
	}

	// A restricted source must not launder through a public target: the
	// target's level is fixed at creation, so the write is rejected.
	put(t, w, 3, matrix.Fill(2, 2, 9), privacy.Private)
	if r := exec(t, w, fedrpc.Instruction{Opcode: "leftIndex", Inputs: []int64{1, 3}, Scalars: []float64{0, 0}}); r.OK {
		t.Fatal("Private source written into Public target")
	}
}

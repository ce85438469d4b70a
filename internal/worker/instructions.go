package worker

import (
	"context"
	"fmt"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// binaryOps maps DML opcodes to element-wise binary operations.
var binaryOps = map[string]matrix.BinaryOp{
	"+": matrix.OpAdd, "-": matrix.OpSub, "*": matrix.OpMul, "/": matrix.OpDiv,
	"^": matrix.OpPow, "min": matrix.OpMin, "max": matrix.OpMax,
	"%%": matrix.OpMod, "%/%": matrix.OpIntDiv,
	"==": matrix.OpEq, "!=": matrix.OpNe, ">": matrix.OpGt, ">=": matrix.OpGe,
	"<": matrix.OpLt, "<=": matrix.OpLe,
	"&": matrix.OpAnd, "|": matrix.OpOr, "xor": matrix.OpXor, "log_b": matrix.OpLog,
}

// unaryOps maps DML opcodes to element-wise unary operations.
var unaryOps = map[string]matrix.UnaryOp{
	"abs": matrix.UAbs, "cos": matrix.UCos, "exp": matrix.UExp,
	"floor": matrix.UFloor, "ceil": matrix.UCeil, "isNA": matrix.UIsNA,
	"log": matrix.ULog, "!": matrix.UNot, "round": matrix.URound,
	"sin": matrix.USin, "sign": matrix.USign, "sqrt": matrix.USqrt,
	"tan": matrix.UTan, "sigmoid": matrix.USigmoid, "uminus": matrix.UNeg,
	"relu": matrix.URelu,
}

// aggOps maps aggregate suffixes to aggregation operations.
var aggOps = map[string]matrix.AggOp{
	"sum": matrix.AggSum, "min": matrix.AggMin, "max": matrix.AggMax,
	"mean": matrix.AggMean, "var": matrix.AggVar, "sd": matrix.AggSD,
}

// handleInst interprets one EXEC_INST request. Inputs and the output are
// symbol-table IDs; the output privacy level is the propagation of the most
// restrictive input level through the operation kind. The kernels
// themselves run to completion once started — cancellation is checked here,
// at the instruction boundary, so a multi-request EXEC batch whose call
// budget expires stops before launching the next long kernel (the server's
// reply path separately ensures the coordinator is answered on time even
// when a kernel is mid-flight).
func (w *Worker) handleInst(ctx context.Context, req fedrpc.Request) fedrpc.Response {
	inst := req.Inst
	if inst == nil {
		return fedrpc.Errorf("EXEC_INST: missing instruction")
	}
	if err := ctx.Err(); err != nil {
		return abortResponse(err)
	}
	start := time.Now()
	defer func() {
		w.Metrics.Histogram("worker.inst_seconds."+inst.Opcode, obs.LatencyBuckets).
			Observe(time.Since(start).Seconds())
	}()
	// rightIndex propagates fine-grained column constraints: slicing out
	// the public columns of a mixed-constraint object yields a
	// transferable result, while any restricted column keeps its level.
	if inst.Opcode == "rightIndex" && len(inst.Inputs) == 1 {
		if in, err := w.Get(inst.Inputs[0]); err == nil && len(in.ColLevels) > 0 && len(inst.Scalars) >= 4 {
			out, _, err := w.execInst(inst)
			if err != nil {
				return fedrpc.Errorf("EXEC_INST %s: %v", inst.Opcode, err)
			}
			cb, ce := int(inst.Scalars[2]), int(inst.Scalars[3])
			cols := make([]privacy.Level, 0, ce-cb)
			for j := cb; j < ce; j++ {
				if j < len(in.ColLevels) {
					cols = append(cols, in.ColLevels[j])
				} else {
					cols = append(cols, in.Level)
				}
			}
			w.Put(inst.Output, &Entry{Mat: out, Level: in.Level, ColLevels: cols})
			return fedrpc.Response{OK: true}
		}
	}
	// leftIndex mutates its target instead of producing a fresh output, so
	// it bypasses the allocate-and-Put path below.
	if inst.Opcode == "leftIndex" {
		if err := w.execLeftIndex(inst); err != nil {
			return fedrpc.Errorf("EXEC_INST leftIndex: %v", err)
		}
		return fedrpc.Response{OK: true}
	}
	out, level, err := w.execInst(inst)
	if err != nil {
		return fedrpc.Errorf("EXEC_INST %s: %v", inst.Opcode, err)
	}
	if out != nil {
		w.Put(inst.Output, &Entry{Mat: out, Level: level})
	}
	return fedrpc.Response{OK: true}
}

// execLeftIndex implements left indexing, X[rb+1:rb+n, cb+1:cb+m] = Y
// (DML matrix assignment, ExDRa Table 1): inputs are the target and source
// IDs, scalars the zero-based row and column offsets. It is the one
// instruction that mutates an existing binding in place — every other op
// allocates a fresh output — so the write runs under the worker's write
// lock, which excludes the under-lock payload snapshot a concurrent GET
// takes of the same binding (handleGet).
//
// Privacy: an entry's level is set once at creation and read lock-free
// everywhere, so the target's level cannot be raised to absorb a more
// restrictive source; such a write is rejected instead — anything else
// would launder the source's constraint through the laxer target.
func (w *Worker) execLeftIndex(inst *fedrpc.Instruction) error {
	if len(inst.Inputs) < 2 {
		return fmt.Errorf("needs target and source IDs")
	}
	if len(inst.Scalars) < 2 {
		return fmt.Errorf("needs row and column offsets")
	}
	rb, cb := int(inst.Scalars[0]), int(inst.Scalars[1])
	tgt, err := w.Get(inst.Inputs[0])
	if err != nil {
		return err
	}
	srcEnt, err := w.Get(inst.Inputs[1])
	if err != nil {
		return err
	}
	src, err := w.Matrix(inst.Inputs[1])
	if err != nil {
		return err
	}
	if sl, tl := srcEnt.effectiveLevel(), tgt.effectiveLevel(); privacy.Max(sl, tl) != tl {
		return fmt.Errorf("source level %v exceeds target level %v", sl, tl)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Decompress in place under the write lock: mutating a dense buffer
	// that Compact already unlinked would silently lose the write.
	if tgt.Mat == nil && tgt.Comp != nil {
		tgt.Mat = tgt.Comp.Decompress()
		tgt.Comp = nil
	}
	m := tgt.Mat
	if m == nil {
		return fmt.Errorf("target %d is not a matrix (%s)", inst.Inputs[0], tgt.describe())
	}
	if rb < 0 || cb < 0 || rb+src.Rows() > m.Rows() || cb+src.Cols() > m.Cols() {
		return fmt.Errorf("assignment [%d+%d, %d+%d] out of range for %dx%d",
			rb, src.Rows(), cb, src.Cols(), m.Rows(), m.Cols())
	}
	m.SetSlice(rb, cb, src)
	return nil
}

// inputLevel returns the most restrictive privacy level among instruction
// inputs, folding fine-grained column constraints in conservatively (an
// operation over any restricted column taints its whole output).
func (w *Worker) inputLevel(ids []int64) privacy.Level {
	level := privacy.Public
	for _, id := range ids {
		if e, err := w.Get(id); err == nil {
			level = privacy.Max(level, e.effectiveLevel())
		}
	}
	return level
}

// execInst dispatches on the opcode and returns the result matrix (nil for
// instructions without a matrix output, e.g. rmvar) and its privacy level.
func (w *Worker) execInst(inst *fedrpc.Instruction) (*matrix.Dense, privacy.Level, error) {
	op := inst.Opcode
	inLevel := w.inputLevel(inst.Inputs)
	transparent := func(m *matrix.Dense, err error) (*matrix.Dense, privacy.Level, error) {
		return m, privacy.Propagate(privacy.Transparent, inLevel), err
	}
	aggregating := func(m *matrix.Dense, err error) (*matrix.Dense, privacy.Level, error) {
		return m, privacy.Propagate(privacy.Aggregating, inLevel), err
	}

	// rmvar cleans up intermediates (e.g. broadcast vectors after use).
	if op == "rmvar" {
		w.Remove(inst.Inputs...)
		return nil, privacy.Public, nil
	}

	// Element-wise binary, matrix-matrix or matrix-scalar.
	if bop, ok := binaryOps[op]; ok {
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		if len(inst.Inputs) >= 2 {
			b, err := w.Matrix(inst.Inputs[1])
			if err != nil {
				return nil, 0, err
			}
			return transparent(a.Binary(bop, b), nil)
		}
		if len(inst.Scalars) < 1 {
			return nil, 0, fmt.Errorf("scalar operand missing")
		}
		swap := inst.Attrs["swap"] == "1"
		return transparent(a.BinaryScalar(bop, inst.Scalars[0], swap), nil)
	}

	// Element-wise unary.
	if uop, ok := unaryOps[op]; ok {
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		return transparent(a.Unary(uop), nil)
	}

	// Row aggregates (output stays row-aligned and federated).
	if len(op) > 4 && op[:4] == "uar_" {
		aop, ok := aggOps[op[4:]]
		if !ok && op[4:] == "indexmax" {
			a, err := w.Matrix(inst.Inputs[0])
			if err != nil {
				return nil, 0, err
			}
			return transparent(a.RowIndexMax(), nil)
		}
		if !ok {
			return nil, 0, fmt.Errorf("unknown row aggregate %q", op)
		}
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		return transparent(a.RowAgg(aop), nil)
	}

	switch op {
	case "mm": // X %*% B with broadcast B
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		b, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		if a.Cols() != b.Rows() {
			return nil, 0, fmt.Errorf("%dx%d %%*%% %dx%d: inner dimensions differ", a.Rows(), a.Cols(), b.Rows(), b.Cols())
		}
		// Matrix-multiplication outputs are inner products over the shared
		// dimension — aggregates in the sense of §2.3 (like gradients).
		// Fine-grained leakage analysis (e.g. unit-vector probes) is
		// explicitly future work in the paper and out of scope here.
		return aggregating(a.MatMul(b), nil)

	case "tsmm": // t(X) %*% X partial
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		return aggregating(a.TSMM(), nil)

	case "mmchain": // t(X) %*% (w * (X %*% v)) partial
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		v, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		var wt *matrix.Dense
		if len(inst.Inputs) >= 3 {
			if wt, err = w.Matrix(inst.Inputs[2]); err != nil {
				return nil, 0, err
			}
		}
		if v.Rows() != a.Cols() {
			return nil, 0, fmt.Errorf("X is %dx%d, v is %dx%d: want %d rows in v", a.Rows(), a.Cols(), v.Rows(), v.Cols(), a.Cols())
		}
		if wt != nil && (wt.Rows() != a.Rows() || wt.Cols() != v.Cols()) {
			return nil, 0, fmt.Errorf("X is %dx%d, v is %dx%d, w is %dx%d: want w %dx%d",
				a.Rows(), a.Cols(), v.Rows(), v.Cols(), wt.Rows(), wt.Cols(), a.Rows(), v.Cols())
		}
		return aggregating(a.MMChain(v, wt), nil)

	case "tmm": // t(A) %*% B partial (aligned federated matmul, e.g. t(P) %*% X)
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		b, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		if a.Rows() != b.Rows() {
			return nil, 0, fmt.Errorf("t(%dx%d) %%*%% %dx%d: row counts differ", a.Rows(), a.Cols(), b.Rows(), b.Cols())
		}
		return aggregating(a.TMatMul(b), nil)

	case "t":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		return transparent(a.Transpose(), nil)

	case "ua_partial": // full-aggregate partial tuple [sum, sumsq, min, max, n]
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		sum, sumSq, mn, mx, n := a.PartialAgg()
		out := matrix.RowVector([]float64{sum, sumSq, mn, mx, float64(n)})
		return aggregating(out, nil)

	case "uac_partial": // column-aggregate partials, 5 x cols
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		out := matrix.RBind(a.ColPartialAggs(), matrix.Fill(1, a.Cols(), float64(a.Rows())))
		return aggregating(out, nil)

	case "softmax":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		return transparent(a.Softmax(), nil)

	case "ifelse":
		c, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		a, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		b, err := w.Matrix(inst.Inputs[2])
		if err != nil {
			return nil, 0, err
		}
		return transparent(c.IfElse(a, b), nil)

	case "+*", "-*":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		b, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		if len(inst.Scalars) < 1 {
			return nil, 0, fmt.Errorf("missing scalar for %s", op)
		}
		if op == "+*" {
			return transparent(a.PlusMult(inst.Scalars[0], b), nil)
		}
		return transparent(a.MinusMult(inst.Scalars[0], b), nil)

	case "ctable":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		b, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		rc, cc := 0, 0
		if len(inst.Scalars) >= 2 {
			rc, cc = int(inst.Scalars[0]), int(inst.Scalars[1])
		}
		return aggregating(matrix.CTable(a, b, rc, cc), nil)

	case "wsloss", "wcemm":
		x, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		u, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		v, err := w.Matrix(inst.Inputs[2])
		if err != nil {
			return nil, 0, err
		}
		var val float64
		if op == "wsloss" {
			var wt *matrix.Dense
			if len(inst.Inputs) >= 4 {
				if wt, err = w.Matrix(inst.Inputs[3]); err != nil {
					return nil, 0, err
				}
			}
			val = matrix.WSLoss(x, u, v, wt)
		} else {
			val = matrix.WCEMM(x, u, v)
		}
		return aggregating(matrix.Fill(1, 1, val), nil)

	case "wsigmoid":
		x, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		u, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		v, err := w.Matrix(inst.Inputs[2])
		if err != nil {
			return nil, 0, err
		}
		return transparent(matrix.WSigmoid(x, u, v), nil)

	case "wdivmm":
		x, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		u, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		v, err := w.Matrix(inst.Inputs[2])
		if err != nil {
			return nil, 0, err
		}
		return aggregating(matrix.WDivMM(x, u, v), nil)

	case "rbind", "cbind":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		b, err := w.Matrix(inst.Inputs[1])
		if err != nil {
			return nil, 0, err
		}
		if op == "rbind" {
			return transparent(matrix.RBind(a, b), nil)
		}
		return transparent(matrix.CBind(a, b), nil)

	case "rightIndex": // X[rb:re, cb:ce] with partition-relative scalars
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		if len(inst.Scalars) < 4 {
			return nil, 0, fmt.Errorf("rightIndex needs 4 bounds")
		}
		rb, re := int(inst.Scalars[0]), int(inst.Scalars[1])
		cb, ce := int(inst.Scalars[2]), int(inst.Scalars[3])
		return transparent(a.Slice(rb, re, cb, ce), nil)

	case "removeEmpty":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		if inst.Attrs["margin"] == "cols" {
			m, _ := a.RemoveEmptyCols()
			return transparent(m, nil)
		}
		m, _ := a.RemoveEmptyRows()
		return transparent(m, nil)

	case "replace":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		if len(inst.Scalars) < 2 {
			return nil, 0, fmt.Errorf("replace needs pattern and replacement")
		}
		return transparent(a.Replace(inst.Scalars[0], inst.Scalars[1]), nil)

	case "reshape":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		if len(inst.Scalars) < 2 {
			return nil, 0, fmt.Errorf("reshape needs rows and cols")
		}
		return transparent(a.Reshape(int(inst.Scalars[0]), int(inst.Scalars[1])), nil)

	case "fill":
		if len(inst.Scalars) < 3 {
			return nil, 0, fmt.Errorf("fill needs rows, cols, value")
		}
		return matrix.Fill(int(inst.Scalars[0]), int(inst.Scalars[1]), inst.Scalars[2]),
			privacy.Public, nil

	case "diag":
		a, err := w.Matrix(inst.Inputs[0])
		if err != nil {
			return nil, 0, err
		}
		return transparent(a.Diag(), nil)

	default:
		return nil, 0, fmt.Errorf("unsupported opcode %q", op)
	}
}

package federated

import (
	"fmt"
	"math"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
)

// Federated order statistics, composed purely from aggregate exchanges in
// the spirit of §4.2's higher-level primitives: the coordinator binary-
// searches the value domain, and at each step the workers report only the
// count of cells below the pivot (an EXEC_INST chain of a comparison and a
// partial aggregate). Raw values never leave the sites; the result is exact
// to the requested tolerance.

// Quantile returns the q-quantile (0 <= q <= 1) of all cells of the
// federated matrix, to within tol of the true value (default 1e-9 relative
// to the value range).
func (m *Matrix) Quantile(q, tol float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("federated: quantile %g out of [0,1]", q)
	}
	// The range's two ends are one exchange.
	minV, maxV := m.QueueAggFull(matrix.AggMin), m.QueueAggFull(matrix.AggMax)
	if err := Fetch(minV, maxV); err != nil {
		return 0, err
	}
	loM, _ := minV.Get()
	hiM, _ := maxV.Get()
	lo, hi := loM.At(0, 0), hiM.At(0, 0)
	if lo == hi {
		return lo, nil
	}
	if tol <= 0 {
		tol = 1e-9 * (hi - lo)
	}
	total := m.Rows() * m.Cols()
	target := q * float64(total)
	// Binary search: count(cells <= pivot) is monotone in the pivot; each
	// probe costs one round of aggregate exchanges.
	for hi-lo > tol {
		mid := (lo + hi) / 2
		count, err := m.countLE(mid)
		if err != nil {
			return 0, err
		}
		if float64(count) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Median returns the 0.5-quantile.
func (m *Matrix) Median() (float64, error) { return m.Quantile(0.5, 0) }

// countLE counts cells <= pivot across all partitions, exchanging one
// scalar per worker.
func (m *Matrix) countLE(pivot float64) (int, error) {
	resps, err := m.c.parallelCall("quantile", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		maskID, aggID := m.c.NewID(), m.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "<=", Inputs: []int64{p.DataID}, Output: maskID,
				Scalars: []float64{pivot}}},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "ua_partial", Inputs: []int64{maskID}, Output: aggID}},
			{Type: fedrpc.Get, ID: aggID},
			rmvar(maskID, aggID),
		}
	})
	if err != nil {
		return 0, err
	}
	count := 0.0
	for _, rs := range resps {
		count += rs[2].Data.Matrix().At(0, 0) // sum of the 0/1 mask
	}
	if math.IsNaN(count) {
		return 0, fmt.Errorf("federated: NaN cells break quantile counting")
	}
	return int(math.Round(count)), nil
}

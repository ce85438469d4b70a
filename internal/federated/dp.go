package federated

import (
	"fmt"
	"math/rand"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
	"exdra/internal/worker"
)

// Differentially-private federated aggregates: one of the paper's privacy-
// enhancing technologies (§2.3, "differential privacy (added noise)") for
// cases where even exact aggregates cannot be shared. Each worker adds
// Laplace noise to its partial aggregate locally, before anything leaves
// the site, so the coordinator only ever sees noised values (local DP at
// site granularity).

func init() {
	worker.MustRegisterUDF("dp_partial_sum", udfDPPartialSum)
}

// DPArgs configure the local noise addition.
type DPArgs struct {
	// Epsilon is the per-site privacy budget.
	Epsilon float64
	// Sensitivity bounds one record's contribution to the sum.
	Sensitivity float64
	// Seed makes tests deterministic; production deployments use a
	// cryptographic source at the worker.
	Seed int64
}

func udfDPPartialSum(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args DPArgs
	if err := worker.DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	if args.Epsilon <= 0 {
		return fedrpc.Payload{}, fmt.Errorf("dp_partial_sum: epsilon must be positive")
	}
	x, err := w.Matrix(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	rng := rand.New(rand.NewSource(args.Seed))
	noised, err := privacy.LaplaceMechanism(rng, x.Sum(), args.Sensitivity, args.Epsilon)
	if err != nil {
		return fedrpc.Payload{}, fmt.Errorf("dp_partial_sum: %w", err)
	}
	// The noised aggregate is safe to release regardless of the raw
	// object's constraint: that is the point of the mechanism.
	return fedrpc.ScalarPayload(noised), nil
}

// SumDP returns an epsilon-differentially-private federated sum: every site
// noises its partial sum locally with Laplace(sensitivity/epsilon) before
// release. Variance grows with the number of sites (each adds independent
// noise), the standard cost of local DP.
func (m *Matrix) SumDP(epsilon, sensitivity float64, seed int64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("federated: epsilon must be positive")
	}
	resps, err := m.c.parallelCall("sumDP", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		args, _ := worker.EncodeArgs(DPArgs{
			Epsilon: epsilon, Sensitivity: sensitivity, Seed: seed + int64(i)})
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: "dp_partial_sum", Inputs: []int64{p.DataID}, Args: args}}}
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, rs := range resps {
		total += rs[0].Data.Scalar
	}
	return total, nil
}

// RemoveEmptyRows drops all-zero rows per partition (DML removeEmpty,
// margin="rows") and compacts the federation map accordingly. The output
// stays federated; only per-partition kept-row counts travel.
func (m *Matrix) RemoveEmptyRows() (*Matrix, error) {
	if m.Scheme() != RowPartitioned {
		return nil, fmt.Errorf("federated: removeEmpty(rows) requires row partitioning")
	}
	outIDs := m.newIDs()
	resps, err := m.c.parallelCall("removeEmpty", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "removeEmpty", Inputs: []int64{p.DataID}, Output: outIDs[i],
				Attrs: map[string]string{"margin": "rows"}}},
			{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
				Name: "obj_dims", Inputs: []int64{outIDs[i]}}},
		}
	})
	if err != nil {
		return nil, err
	}
	fm := FedMap{Cols: m.Cols()}
	row := 0
	for i, p := range m.fm.Partitions {
		kept := int(resps[i][1].Data.Matrix().At(0, 0))
		if kept == 0 {
			continue
		}
		fm.Partitions = append(fm.Partitions, Partition{
			Range:  Range{RowBeg: row, RowEnd: row + kept, ColBeg: 0, ColEnd: m.Cols()},
			Addr:   p.Addr,
			DataID: outIDs[i],
		})
		row += kept
	}
	fm.Rows = row
	if row == 0 {
		return nil, fmt.Errorf("federated: removeEmpty produced an empty matrix")
	}
	return FromMap(m.c, fm)
}

// CTableFed computes the contingency table of two aligned federated column
// vectors by summing per-partition partial tables at the coordinator (the
// federated ternary ctable of Table 1). Dimensions are capped at rowsCap x
// colsCap, which must cover the value domain.
func CTableFed(a, b *Matrix, rowsCap, colsCap int) (*matrix.Dense, error) {
	if !AlignedRows(a.fm, b.fm) {
		return nil, fmt.Errorf("federated: ctable requires aligned inputs")
	}
	if rowsCap <= 0 || colsCap <= 0 {
		return nil, fmt.Errorf("federated: ctable requires explicit dimension caps")
	}
	as, bs := a.fm.sorted(), b.fm.sorted()
	parts := make([]Partition, len(as))
	copy(parts, as)
	resps, err := a.c.parallelCall("ctable", parts, func(i int, p Partition) []fedrpc.Request {
		oid := a.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "ctable", Inputs: []int64{p.DataID, bs[i].DataID}, Output: oid,
				Scalars: []float64{float64(rowsCap), float64(colsCap)}}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(oid),
		}
	})
	if err != nil {
		return nil, err
	}
	out := matrix.NewDense(rowsCap, colsCap)
	for _, rs := range resps {
		out.AddInPlace(rs[1].Data.Matrix())
	}
	return out, nil
}

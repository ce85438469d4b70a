package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/transform"
	"exdra/internal/worker"
)

// Federated missing-value imputation (§4.4, Example 4): two-pass algorithms
// over a federated frame. Pass one collects aggregate counts from every
// site; the coordinator derives the global imputation rule; pass two
// broadcasts the rule and rewrites each partition in place at its site. The
// raw rows never move.

// ImputeMode fills NULLs of a categorical column with the globally most
// frequent value, returning a new federated frame.
func (f *Frame) ImputeMode(col string) (*Frame, string, error) {
	args, err := worker.EncodeArgs(worker.ImputeCountsArgs{Col: col})
	if err != nil {
		return nil, "", err
	}
	resps, err := f.c.parallelCall("imputeMode", f.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: "impute_counts", Inputs: []int64{p.DataID}, Args: args}}}
	})
	if err != nil {
		return nil, "", err
	}
	parts := make([]map[string]int, len(resps))
	for i, rs := range resps {
		if err := worker.DecodeArgs(rs[0].Data.Bytes, &parts[i]); err != nil {
			return nil, "", err
		}
	}
	mode, ok := transform.Mode(transform.MergeCounts(parts...))
	if !ok {
		return nil, "", fmt.Errorf("federated: column %q has no non-NULL values", col)
	}
	out, err := f.applyImpute("impute_apply_mode", worker.ImputeApplyModeArgs{Col: col, Value: mode})
	return out, mode, err
}

// ImputeFD fills NULLs of toCol via the robust functional dependency
// fromCol -> toCol discovered from global co-occurrence counts.
func (f *Frame) ImputeFD(fromCol, toCol string, minSupport float64) (*Frame, map[string]string, error) {
	args, err := worker.EncodeArgs(worker.ImputePairsArgs{From: fromCol, To: toCol})
	if err != nil {
		return nil, nil, err
	}
	resps, err := f.c.parallelCall("imputeFD", f.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: "impute_pairs", Inputs: []int64{p.DataID}, Args: args}}}
	})
	if err != nil {
		return nil, nil, err
	}
	parts := make([]map[string]map[string]int, len(resps))
	for i, rs := range resps {
		if err := worker.DecodeArgs(rs[0].Data.Bytes, &parts[i]); err != nil {
			return nil, nil, err
		}
	}
	mapping := transform.FDMapping(transform.MergePairCounts(parts...), minSupport)
	out, err := f.applyImpute("impute_apply_fd", worker.ImputeApplyFDArgs{
		From: fromCol, To: toCol, Mapping: mapping})
	return out, mapping, err
}

// applyImpute broadcasts an imputation rule and rebinds every partition to
// the imputed frame under fresh IDs.
func (f *Frame) applyImpute(udfName string, ruleArgs any) (*Frame, error) {
	args, err := worker.EncodeArgs(ruleArgs)
	if err != nil {
		return nil, err
	}
	outIDs := make([]int64, len(f.fm.Partitions))
	for i := range outIDs {
		outIDs[i] = f.c.NewID()
	}
	_, err = f.c.parallelCall("impute", f.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: udfName, Inputs: []int64{p.DataID}, Output: outIDs[i], Args: args}}}
	})
	if err != nil {
		return nil, err
	}
	fm := FedMap{Rows: f.fm.Rows, Cols: f.fm.Cols}
	for i, p := range f.fm.Partitions {
		fm.Partitions = append(fm.Partitions, Partition{Range: p.Range, Addr: p.Addr, DataID: outIDs[i]})
	}
	return &Frame{c: f.c, fm: fm}, nil
}

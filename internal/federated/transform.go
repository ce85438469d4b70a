package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/frame"
	"exdra/internal/privacy"
	"exdra/internal/transform"
	"exdra/internal/worker"
)

// Frame is a row-partitioned federated frame of raw, heterogeneous data at
// the federated sites.
type Frame struct {
	c  *Coordinator
	fm FedMap
}

// Rows returns the total row count.
func (f *Frame) Rows() int { return f.fm.Rows }

// Cols returns the column count.
func (f *Frame) Cols() int { return f.fm.Cols }

// Map returns a copy of the federation map.
func (f *Frame) Map() FedMap {
	fm := f.fm
	fm.Partitions = append([]Partition(nil), f.fm.Partitions...)
	return fm
}

// DistributeFrame splits a local frame row-wise across worker addresses and
// PUTs the partitions (test/benchmark constructor).
func DistributeFrame(c *Coordinator, fr *frame.Frame, addrs []string, level privacy.Level) (*Frame, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("federated: no worker addresses")
	}
	n := len(addrs)
	if fr.NumRows() < n {
		return nil, fmt.Errorf("federated: cannot split %d rows across %d workers", fr.NumRows(), n)
	}
	fm := FedMap{Rows: fr.NumRows(), Cols: fr.NumCols()}
	beg := 0
	for i, addr := range addrs {
		size := fr.NumRows() / n
		if i < fr.NumRows()%n {
			size++
		}
		end := beg + size
		id := c.NewID()
		if _, err := c.callOne(addr, fedrpc.Request{
			Type: fedrpc.Put, ID: id, Privacy: int(level),
			Data: fedrpc.FramePayload(fr.SliceRows(beg, end)),
		}); err != nil {
			// Reclaim the partitions already placed on other workers, and
			// this one (see DistributeWithColumns).
			c.sweep(append(fm.Partitions, Partition{Addr: addr, DataID: id}))
			return nil, err
		}
		fm.Partitions = append(fm.Partitions, Partition{
			Range:  Range{RowBeg: beg, RowEnd: end, ColBeg: 0, ColEnd: fr.NumCols()},
			Addr:   addr,
			DataID: id,
		})
		beg = end
	}
	return &Frame{c: c, fm: fm}, nil
}

// ReadFrames builds a row-partitioned federated frame from raw CSV files at
// the federated sites without moving raw data.
func ReadFrames(c *Coordinator, specs []ReadSpec) (*Frame, error) {
	fm, err := readSites(c, specs)
	if err != nil {
		return nil, err
	}
	return &Frame{c: c, fm: fm}, nil
}

// Consolidate transfers all frame partitions to the coordinator and stacks
// them (subject to the workers' privacy constraints).
func (f *Frame) Consolidate() (*frame.Frame, error) {
	resps, err := f.c.parallelCall("consolidate", f.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.Get, ID: p.DataID}}
	})
	if err != nil {
		return nil, err
	}
	parts := make([]*frame.Frame, len(resps))
	for i, rs := range resps {
		fr, err := rs[0].Data.ToFrame()
		if err != nil {
			return nil, err
		}
		parts[i] = fr
	}
	return frame.RBind(parts...)
}

// TransformEncode runs the two-pass federated transformencode of §4.4
// (Figure 3). Pass 1: every worker builds encoder-specific partial metadata
// (distinct items, min/max) over its frame partition. The coordinator
// consolidates and sorts the metadata, assigning contiguous codes and bin
// boundaries. Pass 2: the global metadata is broadcast and each worker
// encodes its partition in place. The outputs are a federated encoded
// matrix with consistently aligned feature positions and the local global
// metadata.
func (f *Frame) TransformEncode(spec transform.Spec, colOrder []string) (*Matrix, *transform.Meta, error) {
	// Pass 1: partial metadata per site (EXEC_UDF tf_build_partial).
	buildArgs, err := worker.EncodeArgs(worker.TFBuildArgs{Spec: spec})
	if err != nil {
		return nil, nil, err
	}
	resps, err := f.c.parallelCall("transformencode", f.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: "tf_build_partial", Inputs: []int64{p.DataID}, Args: buildArgs,
		}}}
	})
	if err != nil {
		return nil, nil, err
	}
	partials := make([]transform.PartialMeta, len(resps))
	for i, rs := range resps {
		if err := worker.DecodeArgs(rs[0].Data.Bytes, &partials[i]); err != nil {
			return nil, nil, fmt.Errorf("federated: decode partial metadata: %w", err)
		}
	}

	// Consolidate: merge, sort, assign codes (coordinator-side).
	meta := transform.Merge(spec, colOrder, partials...)

	// Pass 2: broadcast global metadata; encode per partition (tf_apply).
	applyArgs, err := worker.EncodeArgs(worker.TFApplyArgs{Meta: meta})
	if err != nil {
		return nil, nil, err
	}
	outIDs := make([]int64, len(f.fm.Partitions))
	for i := range outIDs {
		outIDs[i] = f.c.NewID()
	}
	_, err = f.c.parallelCall("transformencode", f.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: "tf_apply", Inputs: []int64{p.DataID}, Output: outIDs[i], Args: applyArgs,
		}}}
	})
	if err != nil {
		return nil, nil, err
	}
	fm := FedMap{Rows: f.fm.Rows, Cols: meta.NumOutputCols()}
	for i, p := range f.fm.Partitions {
		fm.Partitions = append(fm.Partitions, Partition{
			Range: Range{RowBeg: p.Range.RowBeg, RowEnd: p.Range.RowEnd,
				ColBeg: 0, ColEnd: meta.NumOutputCols()},
			Addr:   p.Addr,
			DataID: outIDs[i],
		})
	}
	x, err := FromMap(f.c, fm)
	if err != nil {
		return nil, nil, err
	}
	return x, meta, nil
}

// TransformDecode reverses a federated encoding (DML transformdecode): each
// worker decodes its encoded matrix partition back into a raw frame under
// the broadcast global metadata. The decoded frame stays federated.
func TransformDecode(x *Matrix, meta *transform.Meta) (*Frame, error) {
	if x.Scheme() != RowPartitioned {
		return nil, fmt.Errorf("federated: transformdecode requires row partitioning")
	}
	args, err := worker.EncodeArgs(worker.TFApplyArgs{Meta: meta})
	if err != nil {
		return nil, err
	}
	outIDs := make([]int64, len(x.fm.Partitions))
	for i := range outIDs {
		outIDs[i] = x.c.NewID()
	}
	_, err = x.c.parallelCall("transformdecode", x.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
			Name: "tf_decode", Inputs: []int64{p.DataID}, Output: outIDs[i], Args: args,
		}}}
	})
	if err != nil {
		return nil, err
	}
	fm := FedMap{Rows: x.fm.Rows, Cols: len(meta.ColOrder)}
	for i, p := range x.fm.Partitions {
		fm.Partitions = append(fm.Partitions, Partition{
			Range: Range{RowBeg: p.Range.RowBeg, RowEnd: p.Range.RowEnd,
				ColBeg: 0, ColEnd: len(meta.ColOrder)},
			Addr:   p.Addr,
			DataID: outIDs[i],
		})
	}
	return &Frame{c: x.c, fm: fm}, nil
}

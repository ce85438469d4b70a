package worker

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/lineage"
	"exdra/internal/matrix"
	"exdra/internal/transform"
)

// Built-in UDFs of the federated runtime. Feature-transformation UDFs
// implement the two passes of federated transformencode (§4.4, Figure 3).

func init() {
	MustRegisterUDF("tf_build_partial", udfTFBuildPartial)
	MustRegisterUDF("tf_apply", udfTFApply)
	MustRegisterUDF("obj_dims", udfObjDims)
	MustRegisterUDF("tf_decode", udfTFDecode)
}

// udfTFDecode decodes an encoded matrix partition back into a raw frame
// under the broadcast global metadata (transformdecode semantics); the
// decoded frame stays at the site under the matrix's constraint.
func udfTFDecode(w *Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args TFApplyArgs
	if err := DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	e, err := w.Get(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	x, err := w.Matrix(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	f, err := transform.Decode(x, args.Meta)
	if err != nil {
		return fedrpc.Payload{}, err
	}
	w.Put(call.Output, &Entry{Fr: f, Level: e.Level})
	return fedrpc.ScalarPayload(float64(f.NumRows())), nil
}

// udfObjDims returns the dimensions of an object as a 1x2 matrix
// [rows, cols] — the metadata the coordinator needs for read-on-demand
// federation maps over raw files it has never seen.
func udfObjDims(w *Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	e, err := w.Get(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	switch {
	case e.Mat != nil:
		return fedrpc.MatrixPayload(matrix.RowVector([]float64{
			float64(e.Mat.Rows()), float64(e.Mat.Cols())})), nil
	case e.Fr != nil:
		return fedrpc.MatrixPayload(matrix.RowVector([]float64{
			float64(e.Fr.NumRows()), float64(e.Fr.NumCols())})), nil
	default:
		return fedrpc.MatrixPayload(matrix.RowVector([]float64{1, 1})), nil
	}
}

// TFBuildArgs are the arguments of tf_build_partial.
type TFBuildArgs struct {
	Spec transform.Spec
}

// udfTFBuildPartial computes pass-one partial metadata (distinct items,
// min/max) over a frame. The result is lineage-cached: repeated pipeline
// runs over the same raw frame reuse the scan.
func udfTFBuildPartial(w *Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args TFBuildArgs
	if err := DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	f, err := w.Frame(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	trace := lineage.Item{Op: "tf_build_partial", Inputs: []string{
		lineage.LiteralTrace("obj", call.Inputs[0]),
		lineage.LiteralTrace("spec", fmt.Sprintf("%+v", args.Spec)),
	}}.Trace()
	v, err := w.Lineage.GetOrCompute(trace, func() (any, error) {
		return transform.BuildPartial(f, args.Spec)
	})
	if err != nil {
		return fedrpc.Payload{}, err
	}
	// Partial metadata is aggregate information (distinct sets, min/max);
	// the paper explicitly exchanges it with the coordinator.
	out, err := EncodeArgs(v.(transform.PartialMeta))
	if err != nil {
		return fedrpc.Payload{}, err
	}
	return fedrpc.BytesPayload(out), nil
}

// TFApplyArgs are the arguments of tf_apply.
type TFApplyArgs struct {
	Meta *transform.Meta
}

// udfTFApply encodes the worker's frame partition under the broadcast
// global metadata, binding the federated encoded matrix under the output ID.
// The encoded matrix inherits the frame's privacy constraint.
func udfTFApply(w *Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args TFApplyArgs
	if err := DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	e, err := w.Get(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	if e.Fr == nil {
		return fedrpc.Payload{}, fmt.Errorf("tf_apply: object %d is not a frame", call.Inputs[0])
	}
	x, err := transform.Apply(e.Fr, args.Meta)
	if err != nil {
		return fedrpc.Payload{}, err
	}
	w.Put(call.Output, &Entry{Mat: x, Level: e.Level})
	return fedrpc.ScalarPayload(float64(x.Rows())), nil
}

// Package hierarchy implements ExDRa federation hierarchies (§4.1): a
// federated worker whose local data is itself federated acts as the
// coordinator of a subgroup of workers. A gateway site mounts a subgroup
// federation (e.g. the machines inside one enterprise's trust zone) and
// serves it upward either as a consolidated local object — data crosses
// only the intra-enterprise boundary — or purely as aggregates that never
// consolidate anywhere.
package hierarchy

import (
	"fmt"
	"sync"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
	"exdra/internal/worker"
)

func init() {
	worker.MustRegisterUDF("hier_mount", udfMount)
	worker.MustRegisterUDF("hier_consolidate", udfConsolidate)
	worker.MustRegisterUDF("hier_agg", udfAgg)
}

// SubSpec names one leaf file in a subgroup federation.
type SubSpec struct {
	Addr     string
	Filename string
	Privacy  int
}

// MountArgs describe the subgroup a gateway should coordinate.
type MountArgs struct {
	Specs []SubSpec
}

// mount is the gateway-held handle of a subgroup federation.
type mount struct {
	mu    sync.Mutex
	coord *federated.Coordinator // guarded by mu
	fx    *federated.Matrix      // guarded by mu
}

// udfMount makes the gateway worker a coordinator of the subgroup: it
// connects to the leaf workers, issues READs there, and stores the
// federation map (metadata only — no leaf data moves).
func udfMount(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args MountArgs
	if err := worker.DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	coord := federated.NewCoordinator(fedrpc.Options{}, federated.Policy{})
	specs := make([]federated.ReadSpec, len(args.Specs))
	for i, s := range args.Specs {
		specs[i] = federated.ReadSpec{Addr: s.Addr, Filename: s.Filename, Privacy: privacy.Level(s.Privacy)}
	}
	fx, err := federated.ReadRowPartitioned(coord, specs)
	if err != nil {
		coord.Close()
		return fedrpc.Payload{}, fmt.Errorf("hier_mount: %w", err)
	}
	w.Put(call.Output, &worker.Entry{Obj: &mount{coord: coord, fx: fx}, Level: privacy.Private})
	return fedrpc.MatrixPayload(matrix.RowVector([]float64{
		float64(fx.Rows()), float64(fx.Cols())})), nil
}

func getMount(w *worker.Worker, id int64) (*mount, error) {
	e, err := w.Get(id)
	if err != nil {
		return nil, err
	}
	m, ok := e.Obj.(*mount)
	if !ok {
		return nil, fmt.Errorf("hierarchy: object %d is not a subgroup mount", id)
	}
	return m, nil
}

// ConsolidateArgs bind the consolidated subgroup data at the gateway.
type ConsolidateArgs struct {
	// Privacy is the constraint the consolidated object carries at the
	// gateway toward the upper federation.
	Privacy int
}

// udfConsolidate pulls the subgroup partitions into a gateway-local matrix
// (subject to the leaves' privacy constraints) and binds it under the
// output ID, so the upper coordinator can treat the gateway as an ordinary
// federated site holding that region.
func udfConsolidate(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args ConsolidateArgs
	if err := worker.DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	m, err := getMount(w, call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	local, err := m.fx.Consolidate()
	if err != nil {
		return fedrpc.Payload{}, fmt.Errorf("hier_consolidate: %w", err)
	}
	w.PutMatrix(call.Output, local, privacy.Level(args.Privacy))
	return fedrpc.ScalarPayload(float64(local.Rows())), nil
}

// AggArgs select the subgroup aggregate.
type AggArgs struct {
	Op string // sum, min, max, mean, var, sd
}

// udfAgg computes a full aggregate over the subgroup federation without
// consolidating anywhere: the gateway fans the request out to its leaves
// and combines their partial tuples, returning one scalar upward.
func udfAgg(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args AggArgs
	if err := worker.DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	ops := map[string]matrix.AggOp{
		"sum": matrix.AggSum, "min": matrix.AggMin, "max": matrix.AggMax,
		"mean": matrix.AggMean, "var": matrix.AggVar, "sd": matrix.AggSD,
	}
	op, ok := ops[args.Op]
	if !ok {
		return fedrpc.Payload{}, fmt.Errorf("hier_agg: unknown op %q", args.Op)
	}
	m, err := getMount(w, call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, err := m.fx.AggFull(op)
	if err != nil {
		return fedrpc.Payload{}, err
	}
	return fedrpc.ScalarPayload(v), nil
}

// Gateway is the top-coordinator-side helper for building a two-level
// federation: Mount installs the subgroup at a gateway worker, Consolidate
// binds the subgroup's rows there, and the returned data ID can be placed
// in an upper-level federation map.
type Gateway struct {
	coord   *federated.Coordinator
	addr    string
	mountID int64
	rows    int
	cols    int
}

// Mount makes the worker at gatewayAddr the coordinator of the given
// subgroup.
func Mount(coord *federated.Coordinator, gatewayAddr string, specs []SubSpec) (*Gateway, error) {
	args, err := worker.EncodeArgs(MountArgs{Specs: specs})
	if err != nil {
		return nil, err
	}
	id := coord.NewID()
	data, err := coord.ExecUDF(gatewayAddr, &fedrpc.UDFCall{Name: "hier_mount", Output: id, Args: args})
	if err != nil {
		return nil, err
	}
	dims := data.Matrix()
	return &Gateway{coord: coord, addr: gatewayAddr, mountID: id,
		rows: int(dims.At(0, 0)), cols: int(dims.At(0, 1))}, nil
}

// Rows returns the subgroup's total row count.
func (g *Gateway) Rows() int { return g.rows }

// Cols returns the subgroup's column count.
func (g *Gateway) Cols() int { return g.cols }

// Consolidate binds the subgroup's rows as a gateway-local object under the
// given constraint and returns its data ID for upper-level federation maps.
func (g *Gateway) Consolidate(level privacy.Level) (int64, error) {
	args, err := worker.EncodeArgs(ConsolidateArgs{Privacy: int(level)})
	if err != nil {
		return 0, err
	}
	id := g.coord.NewID()
	if _, err := g.coord.ExecUDF(g.addr, &fedrpc.UDFCall{
		Name: "hier_consolidate", Inputs: []int64{g.mountID}, Output: id, Args: args}); err != nil {
		return 0, err
	}
	return id, nil
}

// Agg computes a subgroup aggregate at the gateway without consolidation.
func (g *Gateway) Agg(op string) (float64, error) {
	args, err := worker.EncodeArgs(AggArgs{Op: op})
	if err != nil {
		return 0, err
	}
	data, err := g.coord.ExecUDF(g.addr, &fedrpc.UDFCall{
		Name: "hier_agg", Inputs: []int64{g.mountID}, Args: args})
	if err != nil {
		return 0, err
	}
	return data.Scalar, nil
}

package paramserv

import (
	"fmt"
	"math/rand"

	"exdra/internal/fedrpc"
	"exdra/internal/nn"
	"exdra/internal/worker"

	"exdra/internal/matrix"
)

// Worker-side session state and UDFs of the federated parameter server.
// Registered once per process; cmd/fedworker imports this package so
// standalone workers can serve PS training too.

func init() {
	worker.MustRegisterUDF("ps_setup", udfPSSetup)
	worker.MustRegisterUDF("ps_run", udfPSRun)
}

// session is a PS worker's execution context, stored in the symbol table as
// an opaque object (never transferable via GET).
type session struct {
	net       *nn.Network
	opt       nn.Optimizer
	x, y      *matrix.Dense
	batchSize int
	replicate int
	rng       *rand.Rand

	idx []int
	pos int
}

func udfPSSetup(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	var args SetupArgs
	if err := worker.DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	x, err := w.Matrix(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, fmt.Errorf("ps_setup features: %w", err)
	}
	y, err := w.Matrix(args.YID)
	if err != nil {
		return fedrpc.Payload{}, fmt.Errorf("ps_setup labels: %w", err)
	}
	if y.Rows() != x.Rows() {
		return fedrpc.Payload{}, fmt.Errorf("ps_setup: %d labels for %d rows", y.Rows(), x.Rows())
	}
	net, err := nn.NewNetwork(args.Spec, rand.New(rand.NewSource(args.Seed)))
	if err != nil {
		return fedrpc.Payload{}, err
	}
	opt, err := nn.NewOptimizer(args.Optimizer)
	if err != nil {
		return fedrpc.Payload{}, err
	}
	rep := args.Replicate
	if rep < 1 {
		rep = 1
	}
	sess := &session{
		net: net, opt: opt, x: x, y: y,
		batchSize: args.BatchSize,
		replicate: rep,
		rng:       rand.New(rand.NewSource(args.Seed)),
	}
	w.Put(call.Output, &worker.Entry{Obj: sess})
	return fedrpc.ScalarPayload(float64(x.Rows() * rep)), nil
}

func udfPSRun(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	e, err := w.Get(call.Inputs[0])
	if err != nil {
		return fedrpc.Payload{}, err
	}
	sess, ok := e.Obj.(*session)
	if !ok {
		return fedrpc.Payload{}, fmt.Errorf("ps_run: object %d is not a PS session", call.Inputs[0])
	}
	var args RunArgs
	if err := worker.DecodeArgs(call.Args, &args); err != nil {
		return fedrpc.Payload{}, err
	}
	base := fromWire(args.Params)
	if err := sess.net.SetParams(base); err != nil {
		return fedrpc.Payload{}, err
	}
	if args.NewEpoch || sess.idx == nil {
		// Local shuffling and replication only — the federated PS respects
		// data locality (§4.3).
		sess.idx = localShuffle(sess.rng, sess.x.Rows(), sess.replicate)
		sess.pos = 0
	}
	to := len(sess.idx)
	if args.MaxBatches > 0 && sess.pos+args.MaxBatches*sess.batchSize < to {
		to = sess.pos + args.MaxBatches*sess.batchSize
	}
	loss, batches := runBatches(sess.net, sess.opt, sess.x, sess.y, sess.idx, sess.pos, to, sess.batchSize)
	sess.pos = to
	reply := RunReply{
		Deltas:  toWire(deltas(sess.net.Params(), base)),
		Loss:    loss,
		Batches: batches,
		Done:    sess.pos >= len(sess.idx),
	}
	enc, err := worker.EncodeArgs(reply)
	if err != nil {
		return fedrpc.Payload{}, err
	}
	return fedrpc.BytesPayload(enc), nil
}

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/obs"
	"exdra/internal/privacy"
	"exdra/internal/worker"
)

// topOps are the engine opcodes whose time engine.top_op_s.* reports: the
// five that take the most time over a lan-train pass at the commit that
// defined the benchmark. The set is fixed so that the metric names are.
var topOps = []string{"mmchain", "mm", "tmm", "tsmm", "binary"}

// layerMetrics names every per-layer metric with its unit, as
// BENCHMARK.json lists them. A traced run emits all of them: the layer
// probes run on every workload, and a metric of a phase the workload does
// not have reads 0 there.
func layerMetrics() map[string]string {
	m := map[string]string{
		"matrix.mmchain_gflops": "GFLOP/s", "matrix.tsmm_gflops": "GFLOP/s",
		"matrix.tmatvec_gflops": "GFLOP/s", "matrix.matmul_gflops": "GFLOP/s",
		"matrix.colagg_gb_per_s": "GB/s", "matrix.elementwise_gb_per_s": "GB/s",
		"worker.inst_us.mmchain": "us", "worker.inst_us.tsmm": "us", "worker.inst_us.mm": "us",
		"worker.inst_us.tmm": "us", "worker.inst_us.uac_partial": "us", "worker.inst_us.ua_partial": "us",
		"worker.overhead_us_per_inst": "us", "worker.exec_busy_s": "s",
		"fedrpc.null_call_us": "us", "fedrpc.put_mb_per_s": "MB/s", "fedrpc.get_mb_per_s": "MB/s",
		"fedrpc.frame_mb_per_s": "MB/s", "fedrpc.small_put_us": "us", "fedrpc.burst8_rtts": "rtt",
		"fedrpc.phase_s.queue": "s", "fedrpc.phase_s.encode": "s", "fedrpc.phase_s.network": "s",
		"fedrpc.phase_s.execute": "s", "fedrpc.phase_s.decode": "s",
		"federated.rpc_calls": "count", "federated.requests": "count", "federated.requests_per_call": "ratio",
		"federated.put_mb": "MB", "federated.get_mb": "MB", "federated.retries": "count",
		"federated.small_op_us": "us",
		"engine.ops":            "count", "engine.fed_op_s": "s", "engine.local_op_s": "s",
		"algo.lm_s": "s", "algo.l2svm_s": "s", "algo.mlogreg_s": "s", "algo.kmeans_s": "s",
		"algo.pca_s": "s", "paramserv.ffn_s": "s", "algo.local_pass_s": "s",
		"worker.read_cold_s": "s", "worker.read_warm_s": "s", "lineage.warm_over_cold": "ratio",
		"frame.csv_mb_per_s": "MB/s", "transform.encode_s": "s", "pipeline.p2_s": "s",
		"federated.bulk_put_s": "s", "federated.bulk_get_s": "s", "federated.frame_put_s": "s",
		"fedserve.open_close_ms": "ms", "fedserve.interactive_solo_ms_p50": "ms",
		"fedserve.interactive_solo_ms_p95": "ms", "fedserve.interference_ratio": "ratio",
		"fedserve.interactive_ms_p99": "ms", "fedserve.interactive_ops_per_s": "1/s",
		"fedserve.bulk_mb_per_s": "MB/s", "fedserve.pool_waits": "count", "fedserve.rejections": "count",
		"netem.rtt_ms_observed": "ms", "netem.mb_per_s_observed": "MB/s",
		"trace.unattributed_s": "s", "trace.overhead_ratio": "ratio",
	}
	for _, op := range topOps {
		m["engine.top_op_s."+op] = "s"
	}
	return m
}

// fillMissingLayerMetrics gives every per-layer metric the run did not
// measure the value 0.
func fillMissingLayerMetrics(r *run) {
	for name, unit := range layerMetrics() {
		if _, ok := r.rec.Metrics[name]; !ok {
			r.set(name, unit, 0)
		}
	}
}

// setPassCounts records the per-pass registry counts of a traced pass:
// exact counts of calls, requests and bytes, and busy seconds per RPC phase
// (parallel workers may sum past wall time).
func (r *run) setPassCounts(c map[string]float64) {
	r.set("federated.rpc_calls", "count", c["rpc_calls"])
	r.set("federated.requests", "count", c["requests"])
	if c["rpc_calls"] > 0 {
		r.set("federated.requests_per_call", "ratio", c["requests"]/c["rpc_calls"])
	}
	r.set("federated.put_mb", "MB", c["bytes_out"]/1e6)
	r.set("federated.get_mb", "MB", c["bytes_in"]/1e6)
	r.set("federated.retries", "count", c["retries"])
	for _, phase := range []string{"queue", "encode", "network", "execute", "decode"} {
		r.set("fedrpc.phase_s."+phase, "s", c["phase_"+phase+"_s"])
	}
	r.set("worker.exec_busy_s", "s", c["worker_exec_s"])
	if c["retries"] != 0 {
		r.rec.Attempted++
		r.fail("federated.retries", fmt.Errorf("%g retries on a fault-free link", c["retries"]))
	}
}

// medianSeconds times fn reps times and returns the median.
func medianSeconds(reps int, fn func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// sink keeps kernel results alive so that the compiler cannot drop the
// calls that produce them.
var sink *matrix.Dense

// layerProbes measures the layers below the coordinator one at a time, by
// calling their public functions directly: the matrix kernels on one
// worker's lan-train partition, the worker's instruction interpreter
// without a network, the RPC exchange against a sink handler on loopback,
// and the coordinator's dispatch of the smallest federated operation. They
// do not depend on the workload; every traced run repeats them.
func layerProbes(r *run) error {
	sh := r.cfg.shapes
	reps := sh.layerReps
	n, k := sh.kernelRows, sh.kernelCols
	rng := rand.New(rand.NewSource(r.cfg.seed))
	x := matrix.Randn(rng, n, k, 0, 1)
	v := matrix.Randn(rng, k, 1, 0, 1)
	b := matrix.Randn(rng, n, 1, 0, 1)
	const p = 10
	wide := matrix.Randn(rng, k, p, 0, 1)
	cells := float64(n) * float64(k)

	// Kernels. Operation and byte counts are computed from the shapes, not
	// measured: 4nk for the fused chain, 2nk^2 for t(X)X, 2nk for t(X)b,
	// 2nkp for X B, 8nk bytes read by a column aggregate, 24nk bytes read
	// and written by an element-wise binary.
	kernelS := map[string]float64{}
	for _, kn := range []struct {
		name string
		fn   func()
	}{
		{"mmchain", func() { sink = x.MMChain(v, nil) }},
		{"tsmm", func() { sink = x.TSMM() }},
		{"tmatvec", func() { sink = x.Transpose().MatMul(b) }},
		{"matmul", func() { sink = x.MatMul(wide) }},
		{"colagg", func() { sink = x.ColAgg(matrix.AggSum) }},
		{"elementwise", func() { sink = x.Binary(matrix.OpMul, x) }},
	} {
		fn := kn.fn
		s, err := medianSeconds(reps, func() error { fn(); return nil })
		if err != nil {
			return err
		}
		kernelS[kn.name] = s
	}
	r.set("matrix.mmchain_gflops", "GFLOP/s", 4*cells/kernelS["mmchain"]/1e9)
	r.set("matrix.tsmm_gflops", "GFLOP/s", 2*cells*float64(k)/kernelS["tsmm"]/1e9)
	r.set("matrix.tmatvec_gflops", "GFLOP/s", 2*cells/kernelS["tmatvec"]/1e9)
	r.set("matrix.matmul_gflops", "GFLOP/s", 2*cells*p/kernelS["matmul"]/1e9)
	r.set("matrix.colagg_gb_per_s", "GB/s", 8*cells/kernelS["colagg"]/1e9)
	r.set("matrix.elementwise_gb_per_s", "GB/s", 24*cells/kernelS["elementwise"]/1e9)

	// The worker's interpreter: the same operands, one EXEC_INST per call,
	// no network.
	w := worker.New("")
	w.Metrics = obs.New()
	const xID, vID, bID, wideID, tinyID, outID = 1, 2, 3, 4, 5, 9
	w.PutMatrix(xID, x, privacy.Public)
	w.PutMatrix(vID, v, privacy.Public)
	w.PutMatrix(bID, b, privacy.Public)
	w.PutMatrix(wideID, wide, privacy.Public)
	w.PutMatrix(tinyID, matrix.Identity(2), privacy.Public)
	inst := func(reps int, opcode string, inputs ...int64) (float64, error) {
		req := []fedrpc.Request{{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
			Opcode: opcode, Inputs: inputs, Output: outID}}}
		s, err := medianSeconds(reps, func() error {
			if resp := w.Handle(req)[0]; !resp.OK {
				return fmt.Errorf("worker %s: %s", opcode, resp.Err)
			}
			return nil
		})
		return s * 1e6, err
	}
	for _, in := range []struct {
		opcode string
		inputs []int64
	}{
		{"mmchain", []int64{xID, vID}},
		{"tsmm", []int64{xID}},
		{"mm", []int64{xID, wideID}},
		{"tmm", []int64{xID, bID}},
		{"uac_partial", []int64{xID}},
		{"ua_partial", []int64{xID}},
	} {
		us, err := inst(reps, in.opcode, in.inputs...)
		if err != nil {
			return err
		}
		r.set("worker.inst_us."+in.opcode, "us", us)
	}
	// Instruction time minus kernel time is the difference of two noisy
	// milliseconds; the interpreter's own cost is measured where the kernel
	// costs nothing, on a 2x2 operand.
	us, err := inst(1000*reps, "tsmm", tinyID)
	if err != nil {
		return err
	}
	r.set("worker.overhead_us_per_inst", "us", us)

	if err := rpcProbes(r, x); err != nil {
		return err
	}
	return dispatchProbe(r)
}

// rpcProbes times the RPC exchange alone: a client and a server on
// loopback whose handler keeps nothing (PUT) or answers from memory (GET),
// with the options a coordinator dials with by default.
func rpcProbes(r *run, x *matrix.Dense) error {
	sh := r.cfg.shapes
	reps := sh.layerReps
	big := x.SliceRows(0, sh.transferRows) // 8 MB at full scale
	small := x.SliceRows(0, 10)            // 8 KB at full scale
	raw := data.PaperProduction(data.PaperProductionConfig{Rows: sh.ingestRows / 2,
		ContinuousCols: sh.ingestSignals, RecipeCategories: sh.ingestRecipes, NullRate: 0.01, Seed: r.cfg.seed})
	handler := fedrpc.HandlerFunc(func(reqs []fedrpc.Request) []fedrpc.Response {
		out := make([]fedrpc.Response, len(reqs))
		for i, rq := range reqs {
			out[i] = fedrpc.Response{OK: true}
			if rq.Type == fedrpc.Get {
				out[i].Data = fedrpc.MatrixPayload(big)
				if rq.ID == 0 {
					out[i].Data = fedrpc.ScalarPayload(1)
				}
			}
		}
		return out
	})
	exchange := func(link netem.Config, fn func(cl *fedrpc.Client) error) error {
		reg := obs.New()
		srv, err := fedrpc.Serve("127.0.0.1:0", handler, fedrpc.Options{Netem: link, Metrics: reg})
		if err != nil {
			return err
		}
		defer srv.Close()
		cl, err := fedrpc.Dial(srv.Addr(), fedrpc.Options{Netem: link, Metrics: reg})
		if err != nil {
			return err
		}
		defer cl.Close()
		return fn(cl)
	}
	call := func(cl *fedrpc.Client, reqs ...fedrpc.Request) func() error {
		return func() error {
			resps, err := cl.Call(reqs...)
			if err != nil {
				return err
			}
			for _, resp := range resps {
				if !resp.OK {
					return fmt.Errorf("rpc probe: %s", resp.Err)
				}
			}
			return nil
		}
	}
	err := exchange(netem.LAN(), func(cl *fedrpc.Client) error {
		if err := call(cl)(); err != nil { // dial outside the clock
			return err
		}
		s, err := medianSeconds(200*reps, call(cl))
		if err != nil {
			return err
		}
		r.set("fedrpc.null_call_us", "us", s*1e6)
		if s, err = medianSeconds(50*reps, call(cl, fedrpc.Request{Type: fedrpc.Put, ID: 1, Data: fedrpc.MatrixPayload(small)})); err != nil {
			return err
		}
		r.set("fedrpc.small_put_us", "us", s*1e6)
		mb := float64(big.Size()) * 8 / 1e6
		if s, err = medianSeconds(reps, call(cl, fedrpc.Request{Type: fedrpc.Put, ID: 1, Data: fedrpc.MatrixPayload(big)})); err != nil {
			return err
		}
		r.set("fedrpc.put_mb_per_s", "MB/s", mb/s)
		if s, err = medianSeconds(reps, call(cl, fedrpc.Request{Type: fedrpc.Get, ID: 1})); err != nil {
			return err
		}
		r.set("fedrpc.get_mb_per_s", "MB/s", mb/s)
		sent := cl.BytesSent()
		if s, err = medianSeconds(reps, call(cl, fedrpc.Request{Type: fedrpc.Put, ID: 2, Data: fedrpc.FramePayload(raw)})); err != nil {
			return err
		}
		r.set("fedrpc.frame_mb_per_s", "MB/s", float64(cl.BytesSent()-sent)/float64(reps)/1e6/s)
		return nil
	})
	if err != nil {
		return err
	}
	// Eight concurrent small GETs over one connection at a fixed 35 ms RTT,
	// in round trips: 8 when exchanges go one at a time, about 1 when they
	// overlap on the wire.
	const rtt = 35 * time.Millisecond
	return exchange(netem.Config{RTT: rtt}, func(cl *fedrpc.Client) error {
		get := call(cl, fedrpc.Request{Type: fedrpc.Get, ID: 0})
		if err := get(); err != nil {
			return err
		}
		burstReps := (reps + 1) / 2
		s, err := medianSeconds(burstReps, func() error {
			errs := make([]error, 8)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = get()
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.set("fedrpc.burst8_rtts", "rtt", s/rtt.Seconds())
		return nil
	})
}

// dispatchProbe times the federated sum of a 2x2 matrix on loopback: no
// data to speak of, so what remains is the coordinator's dispatch.
func dispatchProbe(r *run) error {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: obs.New()})
	if err != nil {
		return err
	}
	defer cl.Close()
	fx, err := federated.Distribute(cl.Coord, matrix.FromRows([][]float64{{1, 2}, {3, 4}}), cl.Addrs,
		federated.RowPartitioned, privacy.Public)
	if err != nil {
		return err
	}
	s, err := medianSeconds(100*r.cfg.shapes.layerReps, func() error {
		got, err := fx.Sum()
		if err == nil && got != 10 {
			err = fmt.Errorf("federated sum of [1 2; 3 4] is %g", got)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("federated.small_op_us", "us", s*1e6)
	return nil
}

// csvProbe times a direct frame CSV read of one site file, in MB/s.
func csvProbe(r *run, path string, bytes int64) error {
	s, err := medianSeconds((r.cfg.shapes.layerReps+1)/2, func() error {
		_, err := frame.ReadCSVFile(path)
		return err
	})
	if err != nil {
		return err
	}
	r.set("frame.csv_mb_per_s", "MB/s", float64(bytes)/1e6/s)
	return nil
}

// Package exdra_test hosts the repository-level benchmarks: one testing.B
// target per table and figure of the ExDRa evaluation (§6), as indexed in
// DESIGN.md, plus ablation benchmarks for the design choices the federated
// runtime makes (request batching, lineage reuse, broadcast slicing).
//
// Run everything with:
//
//	go test -bench=. -benchmem .
//
// Sizes follow internal/bench.DefaultScale and can be raised via the
// EXDRA_ROWS / EXDRA_COLS / EXDRA_CNN_ROWS / EXDRA_PIPE_ROWS environment
// variables toward the paper's 1M x 1,050 setting. Absolute numbers differ
// from the paper's 8-node cluster; the shapes (who wins, scaling with
// workers, WAN/SSL overhead factors) are the reproduction target — see
// EXPERIMENTS.md.
package exdra_test

import (
	"testing"

	"exdra/internal/bench"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/lineage"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
	"exdra/internal/worker"
)

// benchScale trims the default scale so the full suite stays minutes, not
// hours; environment overrides still apply.
func benchScale() bench.Scale {
	sc := bench.DefaultScale()
	if sc.Rows == 4000 { // untouched default: trim for the sweep
		sc.Rows = 2000
	}
	return sc
}

func runAlgo(b *testing.B, name string, env bench.Env) {
	b.Helper()
	w := bench.NewWorkloads(benchScale())
	cl, err := env.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	if cl != nil {
		defer cl.Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunAlgorithm(name, env, cl); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 5: basic algorithm comparison and scalability ----

func BenchmarkFig5(b *testing.B) {
	for _, name := range bench.AlgorithmNames {
		b.Run(name+"/local", func(b *testing.B) { runAlgo(b, name, bench.Env{Mode: bench.Local}) })
		for _, nw := range []int{1, 2, 3} {
			nw := nw
			b.Run(name+"/fed-lan/"+string(rune('0'+nw))+"w", func(b *testing.B) {
				runAlgo(b, name, bench.Env{Mode: bench.FedLAN, Workers: nw})
			})
		}
	}
}

// BenchmarkFig5_LowerBound measures the Fed LowerBound series for LM: local
// time minus the federated-offloadable kernels.
func BenchmarkFig5_LowerBound(b *testing.B) {
	w := bench.NewWorkloads(benchScale())
	for i := 0; i < b.N; i++ {
		if _, err := w.LMLowerBound(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 6: communication settings (LAN / WAN / WAN+SSL) ----

func BenchmarkFig6(b *testing.B) {
	for _, name := range []string{"lm", "kmeans", "ffn"} {
		for _, mode := range []bench.Mode{bench.FedLAN, bench.FedWAN, bench.FedWANSSL} {
			name, mode := name, mode
			b.Run(name+"/"+string(mode), func(b *testing.B) {
				runAlgo(b, name, bench.Env{Mode: mode, Workers: 2})
			})
		}
	}
}

// ---- Figure 7: comparison with other ML systems ----

func BenchmarkFig7(b *testing.B) {
	w := bench.NewWorkloads(benchScale())
	for _, name := range []string{"kmeans", "pca", "ffn", "cnn"} {
		name := name
		b.Run(name+"/exdra-local", func(b *testing.B) {
			runAlgo(b, name, bench.Env{Mode: bench.Local})
		})
		b.Run(name+"/exdra-fed-lan", func(b *testing.B) {
			runAlgo(b, name, bench.Env{Mode: bench.FedLAN, Workers: 2})
		})
		b.Run(name+"/baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.RunBaseline(name)
			}
		})
	}
}

// ---- Figure 8: ML pipeline scalability ----

func BenchmarkFig8(b *testing.B) {
	w := bench.NewWorkloads(benchScale())
	for _, algo := range []string{"lm", "ffn"} {
		algo := algo
		b.Run("P2_"+algo+"/local", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.RunPipeline(algo, bench.Env{Mode: bench.Local}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, nw := range []int{1, 2, 3} {
			nw := nw
			b.Run("P2_"+algo+"/fed-lan/"+string(rune('0'+nw))+"w", func(b *testing.B) {
				env := bench.Env{Mode: bench.FedLAN, Workers: nw}
				cl, err := env.Cluster()
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.RunPipeline(algo, env, cl); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Table 1: federated instruction dispatch cost ----

// BenchmarkTable1_InstructionDispatch measures the per-instruction overhead
// of the six-request-type protocol on a representative instruction mix
// (the functional coverage itself is TestTable1Coverage).
func BenchmarkTable1_InstructionDispatch(b *testing.B) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	x := matrix.Fill(256, 16, 1.5)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.Sum(); err != nil {
			b.Fatal(err)
		}
		u, err := fx.Unary(matrix.USqrt)
		if err != nil {
			b.Fatal(err)
		}
		if err := u.Free(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations ----

// BenchmarkAblation_RPCBatching compares one batched RPC carrying a request
// sequence against issuing the same requests as separate RPCs — the
// protocol design choice of §4.1 ("a single RPC can contain a sequence of
// requests").
func BenchmarkAblation_RPCBatching(b *testing.B) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	addr := cl.Addrs[0]
	v := matrix.Fill(64, 8, 2)
	reqs := func(id int64) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.Put, ID: id, Data: fedrpc.MatrixPayload(v)},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "sqrt", Inputs: []int64{id}, Output: id + 1}},
			{Type: fedrpc.Get, ID: id + 1},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{id, id + 1}}},
		}
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Coord.Call(addr, reqs(int64(10+2*i))...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unbatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reqs(int64(1e6 + 2*i)) {
				if _, err := cl.Coord.Call(addr, r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblation_LineageReuse compares repeated raw-file READs with and
// without the worker's lineage cache (§4.4 reuse of intermediates).
func BenchmarkAblation_LineageReuse(b *testing.B) {
	dir := b.TempDir()
	m := matrix.Fill(500, 100, 1.25)
	if err := m.WriteBinaryFile(dir + "/raw.bin"); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cacheSize int) {
		w := worker.New(dir)
		w.Lineage = lineage.NewCache(cacheSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Read, ID: int64(i + 1), Filename: "raw.bin"}})
			if !resp[0].OK {
				b.Fatal(resp[0].Err)
			}
		}
	}
	b.Run("with-reuse", func(b *testing.B) { run(b, 64) })
	b.Run("without-reuse", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblation_SlicedBroadcast compares the sliced broadcast of a
// row-aligned operand against broadcasting the full operand to every
// worker (Example 2's sliced broadcast optimization).
func BenchmarkAblation_SlicedBroadcast(b *testing.B) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	x := matrix.Fill(6000, 32, 1)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		b.Fatal(err)
	}
	colVec := matrix.Fill(6000, 1, 2) // sliced per partition
	rowVec := matrix.Fill(1, 32, 2)   // replicated to every partition
	b.Run("sliced-colvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := fx.BinaryLocal(matrix.OpMul, colVec, false)
			if err != nil {
				b.Fatal(err)
			}
			out.Free()
		}
	})
	b.Run("replicated-rowvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := fx.BinaryLocal(matrix.OpMul, rowVec, false)
			if err != nil {
				b.Fatal(err)
			}
			out.Free()
		}
	})
}

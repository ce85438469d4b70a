// Package exdra_test hosts the repository-level benchmarks that have no
// other source: the dispatch cost of the federated instruction mix behind
// Table 1, and ablations of the design choices the federated runtime makes
// (request batching, lineage reuse, broadcast slicing).
//
// Run them with:
//
//	go test -run '^$' -bench 'Ablation|Table1' -benchmem .
//
// The paper's figures come from cmd/expbench (-exp fig5..fig8|table1), and
// the numbers ci.sh gates from go run ./benchmark. Absolute numbers differ
// from the paper's 8-node cluster; see EXPERIMENTS.md.
package exdra_test

import (
	"testing"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/lineage"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
	"exdra/internal/worker"
)

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

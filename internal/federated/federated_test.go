package federated_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

func startCluster(t *testing.T, n int) *fedtest.Cluster {
	t.Helper()
	cl, err := fedtest.Start(fedtest.Config{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func randMat(seed int64, r, c int) *matrix.Dense {
	return matrix.Randn(rand.New(rand.NewSource(seed)), r, c, 0, 1)
}

func distribute(t *testing.T, cl *fedtest.Cluster, x *matrix.Dense, scheme federated.Scheme) *federated.Matrix {
	t.Helper()
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, scheme, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestFedMapValidate(t *testing.T) {
	good := federated.FedMap{Rows: 4, Cols: 2, Partitions: []federated.Partition{
		{Range: federated.Range{RowBeg: 0, RowEnd: 2, ColBeg: 0, ColEnd: 2}, Addr: "a", DataID: 1},
		{Range: federated.Range{RowBeg: 2, RowEnd: 4, ColBeg: 0, ColEnd: 2}, Addr: "b", DataID: 2},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Scheme() != federated.RowPartitioned {
		t.Fatal("scheme")
	}
	overlap := good
	overlap.Partitions = append([]federated.Partition(nil), good.Partitions...)
	overlap.Partitions[1].Range.RowBeg = 1
	if err := overlap.Validate(); err == nil {
		t.Fatal("overlapping partitions accepted")
	}
	gap := good
	gap.Partitions = gap.Partitions[:1]
	if err := gap.Validate(); err == nil {
		t.Fatal("non-covering partitions accepted")
	}
	col := federated.FedMap{Rows: 4, Cols: 4, Partitions: []federated.Partition{
		{Range: federated.Range{RowBeg: 0, RowEnd: 4, ColBeg: 0, ColEnd: 2}, Addr: "a"},
		{Range: federated.Range{RowBeg: 0, RowEnd: 4, ColBeg: 2, ColEnd: 4}, Addr: "b"},
	}}
	if col.Scheme() != federated.ColPartitioned {
		t.Fatal("col scheme")
	}
}

func TestDistributeConsolidateRoundTrip(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(1, 50, 7)
	for _, scheme := range []federated.Scheme{federated.RowPartitioned, federated.ColPartitioned} {
		fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, scheme, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fx.Consolidate()
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(x, 0) {
			t.Fatalf("%v consolidate differs", scheme)
		}
	}
}

func TestPrivacyBlocksConsolidation(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(2, 10, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Consolidate(); err == nil || !strings.Contains(err.Error(), "privacy") {
		t.Fatalf("private data consolidated: %v", err)
	}
	// Aggregates over PrivateAggregation data are allowed.
	fy := distribute(t, cl, x, federated.RowPartitioned) // PrivateAggregation
	if _, err := fy.Consolidate(); err == nil {
		t.Fatal("PrivateAggregation raw data consolidated")
	}
	sum, err := fy.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-x.Sum()) > 1e-9 {
		t.Fatal("aggregate under PrivateAggregation")
	}
}

func TestMatVecRowPartitioned(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(3, 40, 6)
	v := randMat(4, 6, 2)
	fx := distribute(t, cl, x, federated.RowPartitioned)
	fed, local, err := fx.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if fed == nil || local != nil {
		t.Fatal("row-partitioned matvec should stay federated")
	}
	// Output of Xv on PrivateAggregation inputs is still non-aggregate per
	// row, so consolidation is denied; verify via a public copy instead.
	pub, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	fed2, _, err := pub.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fed2.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x.MatMul(v), 1e-9) {
		t.Fatal("matvec result")
	}
	if fed.Scheme() != federated.RowPartitioned {
		t.Fatal("output scheme")
	}
}

func TestMatVecColPartitioned(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(5, 20, 9)
	v := randMat(6, 9, 1)
	fx := distribute(t, cl, x, federated.ColPartitioned)
	fed, local, err := fx.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if fed != nil || local == nil {
		t.Fatal("col-partitioned matvec should consolidate")
	}
	if !local.EqualApprox(x.MatMul(v), 1e-9) {
		t.Fatal("col matvec result")
	}
}

func TestTMatVec(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(7, 30, 5)
	b := randMat(8, 30, 2)
	want := x.Transpose().MatMul(b)
	for _, scheme := range []federated.Scheme{federated.RowPartitioned, federated.ColPartitioned} {
		fx := distribute(t, cl, x, scheme)
		got, err := fx.TMatVec(b)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("%v tmatvec result", scheme)
		}
	}
}

func TestTSMMAndMMChain(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(9, 25, 4)
	fx := distribute(t, cl, x, federated.RowPartitioned)
	got, err := fx.TSMM()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x.TSMM(), 1e-9) {
		t.Fatal("fed tsmm")
	}
	for _, k := range []int{1, 4} {
		v := randMat(10, 4, k)
		w := randMat(11, 25, k)
		mc, err := fx.MMChain(v, distribute(t, cl, w, federated.RowPartitioned))
		if err != nil {
			t.Fatal(err)
		}
		if !mc.EqualApprox(x.MMChain(v, w), 1e-9) {
			t.Fatalf("k=%d: fed mmchain weighted", k)
		}
		mc2, err := fx.MMChain(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !mc2.EqualApprox(x.MMChain(v, nil), 1e-9) {
			t.Fatalf("k=%d: fed mmchain unweighted", k)
		}
	}
}

// TestMMChainRejectsMisplacedWeights: the weights of a federated mmchain
// must be a federated matrix co-partitioned with X with one column per
// right-hand side; anything else is an error that names the shapes.
func TestMMChainRejectsMisplacedWeights(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(9, 24, 4)
	fx := distribute(t, cl, x, federated.RowPartitioned)
	v := randMat(10, 4, 2)
	w := randMat(11, 24, 2)
	onTwo := func(s federated.Scheme) *federated.Matrix {
		m, err := federated.Distribute(cl.Coord, w, cl.Addrs[:2], s, privacy.PrivateAggregation)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, c := range []struct {
		name string
		v    *matrix.Dense
		w    *federated.Matrix
		want string
	}{
		{"column-partitioned w", v, onTwo(federated.ColPartitioned), "w is 24x2 column-partitioned in 2 partitions"},
		{"differently split w", v, onTwo(federated.RowPartitioned), "w is 24x2 row-partitioned in 2 partitions"},
		{"w with 2 columns for 1", v.SliceCols(0, 1), distribute(t, cl, w, federated.RowPartitioned), "want 24x1 co-partitioned with X 24x4"},
		{"v with 3 rows", randMat(12, 3, 2), nil, "v is 3x2, want 4xk"},
	} {
		_, err := fx.MMChain(c.v, c.w)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to say %q", c.name, err, c.want)
		}
	}
}

func TestAlignedFederatedOps(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(12, 30, 4)
	v := randMat(13, 4, 3)
	fx := distribute(t, cl, x, federated.RowPartitioned)
	// P = X %*% v stays federated and aligned with X.
	p, _, err := fx.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	// Aligned element-wise: X2 = P * P.
	p2, err := p.Binary(matrix.OpMul, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := p2.Sum()
	if err != nil {
		t.Fatal(err)
	}
	pl := x.MatMul(v)
	if math.Abs(sum-pl.Mul(pl).Sum()) > 1e-8 {
		t.Fatal("aligned elementwise")
	}
	// Aligned t(P) %*% X (the K-Means centroid update pattern).
	tmm, err := p.AlignedTMM(fx)
	if err != nil {
		t.Fatal(err)
	}
	if !tmm.EqualApprox(pl.Transpose().MatMul(x), 1e-8) {
		t.Fatal("aligned tmm")
	}
}

func TestUnalignedBinaryConsolidatesSecondInput(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(14, 12, 3)
	y := randMat(15, 12, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	// Distribute y with swapped addresses so the maps are not aligned.
	rev := []string{cl.Addrs[1], cl.Addrs[0]}
	fy, err := federated.Distribute(cl.Coord, y, rev, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := fx.Binary(matrix.OpAdd, fy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x.Add(y), 1e-12) {
		t.Fatal("unaligned binary via consolidation")
	}
	// If the second input is Private, the fallback must fail with a privacy
	// violation rather than leak the data.
	fz, err := federated.Distribute(cl.Coord, y, rev, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Binary(matrix.OpAdd, fz); err == nil || !strings.Contains(err.Error(), "privacy") {
		t.Fatalf("privacy exception expected, got %v", err)
	}
}

func TestBinaryLocalBroadcastShapes(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(16, 21, 5)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    *matrix.Dense
	}{
		{"full", randMat(17, 21, 5)},
		{"colvec", randMat(18, 21, 1)},
		{"rowvec", randMat(19, 1, 5)},
		{"scalar1x1", matrix.Fill(1, 1, 2.5)},
	}
	for _, c := range cases {
		got, err := fx.BinaryLocal(matrix.OpSub, c.b, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lg, err := got.Consolidate()
		if err != nil {
			t.Fatal(err)
		}
		var want *matrix.Dense
		if c.name == "scalar1x1" {
			want = x.BinaryScalar(matrix.OpSub, 2.5, false)
		} else {
			want = x.Binary(matrix.OpSub, c.b)
		}
		if !lg.EqualApprox(want, 1e-12) {
			t.Fatalf("%s broadcast", c.name)
		}
	}
	// Swapped operand order: s - X.
	swap, err := fx.BinaryScalar(matrix.OpSub, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := swap.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !sg.EqualApprox(x.BinaryScalar(matrix.OpSub, 1, true), 1e-12) {
		t.Fatal("swapped scalar op")
	}
}

func TestFederatedReorgOps(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(20, 18, 4)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	// Transpose flips to column partitioning.
	ft, err := fx.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	if ft.Scheme() != federated.ColPartitioned {
		t.Fatalf("transpose scheme %v", ft.Scheme())
	}
	gt, err := ft.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !gt.EqualApprox(x.Transpose(), 0) {
		t.Fatal("fed transpose")
	}
	// Indexing.
	fs, err := fx.Slice(3, 15, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := fs.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !gs.EqualApprox(x.Slice(3, 15, 1, 3), 0) {
		t.Fatal("fed slice")
	}
	// Replace.
	x0 := x.Clone()
	x0.Set(0, 0, 0)
	f0, err := federated.Distribute(cl.Coord, x0, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := f0.Replace(0, -7)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := fr.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !gr.EqualApprox(x0.Replace(0, -7), 0) {
		t.Fatal("fed replace")
	}
	// Logical rbind/cbind are metadata-only.
	before := cl.Coord.BytesSent()
	rb, err := federated.RBindFed(fx, fx)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rows() != 2*x.Rows() {
		t.Fatal("rbind dims")
	}
	if cl.Coord.BytesSent() != before {
		t.Fatal("rbind moved data")
	}
	cb, err := federated.CBindFed(ft, ft)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Cols() != 2*x.Rows() {
		t.Fatal("cbind dims")
	}
}

func TestFreeReleasesWorkerMemory(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(21, 10, 2)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Workers[0].NumObjects()
	if err := fx.Free(); err != nil {
		t.Fatal(err)
	}
	// Free is deferred: the rmvar travels with the next call, or a flush.
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	if cl.Workers[0].NumObjects() >= before {
		t.Fatal("Free did not remove objects")
	}
	if _, err := fx.Consolidate(); err == nil {
		t.Fatal("consolidate after free succeeded")
	}
}

func TestClearAll(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(22, 10, 2)
	if _, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		if w.NumObjects() != 0 {
			t.Fatalf("worker %d still holds %d objects", i, w.NumObjects())
		}
	}
}

func TestWorkerDownFailsCleanly(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(23, 10, 2)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	cl.Servers[1].Close()
	if _, err := fx.Consolidate(); err == nil {
		t.Fatal("consolidate succeeded with a dead worker")
	}
}

func TestReadRowPartitioned(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	a := randMat(24, 7, 3)
	b := randMat(25, 5, 3)
	if err := a.WriteBinaryFile(dirs[0] + "/part.bin"); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBinaryFile(dirs[1] + "/part.bin"); err != nil {
		t.Fatal(err)
	}
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, BaseDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fx, err := federated.ReadRowPartitioned(cl.Coord, []federated.ReadSpec{
		{Addr: cl.Addrs[0], Filename: "part.bin"},
		{Addr: cl.Addrs[1], Filename: "part.bin"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fx.Rows() != 12 || fx.Cols() != 3 {
		t.Fatalf("read dims %dx%d", fx.Rows(), fx.Cols())
	}
	got, err := fx.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(matrix.RBind(a, b), 0) {
		t.Fatal("read content")
	}
	// Path escapes are rejected.
	if _, err := federated.ReadRowPartitioned(cl.Coord, []federated.ReadSpec{
		{Addr: cl.Addrs[0], Filename: "../part.bin"},
	}); err == nil {
		t.Fatal("path escape accepted")
	}
}

func TestKMeansInnerLoopPattern(t *testing.T) {
	// Exercises the exact federated op sequence of Example 3 in the paper.
	cl := startCluster(t, 3)
	rng := rand.New(rand.NewSource(26))
	x := matrix.Randn(rng, 60, 5, 0, 1)
	c := matrix.Randn(rng, 4, 5, 0, 1) // K=4 centroids
	fx := distribute(t, cl, x, federated.RowPartitioned)

	// D = -2 * (X %*% t(C)) + t(rowSums(C^2))
	xc, _, err := fx.MatVec(c.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := xc.BinaryScalar(matrix.OpMul, -2, false)
	if err != nil {
		t.Fatal(err)
	}
	cs := c.Mul(c).RowSums().Transpose() // 1 x K
	d, err := d1.BinaryLocal(matrix.OpAdd, cs, false)
	if err != nil {
		t.Fatal(err)
	}
	// P = (D <= rowMins(D))
	dm, _, err := d.RowAgg(matrix.AggMin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Binary(matrix.OpLe, dm)
	if err != nil {
		t.Fatal(err)
	}
	// P = P / rowSums(P)
	prs, _, err := p.RowAgg(matrix.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	p, err = p.Binary(matrix.OpDiv, prs)
	if err != nil {
		t.Fatal(err)
	}
	// P_denom = colSums(P); C_new = (t(P) %*% X) / t(P_denom)
	_, pden, err := p.ColAgg(matrix.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	ptx, err := p.AlignedTMM(fx)
	if err != nil {
		t.Fatal(err)
	}
	cNew := ptx.Div(pden.Transpose())

	// Local reference of the same script.
	dl := x.MatMul(c.Transpose()).Scale(-2).Add(cs)
	pl := dl.Binary(matrix.OpLe, dl.RowMins())
	pl = pl.Div(pl.RowSums())
	want := pl.Transpose().MatMul(x).Div(pl.ColSums().Transpose())
	if !cNew.EqualApprox(want, 1e-8) {
		t.Fatal("federated K-Means inner loop differs from local")
	}
}

func TestCoordinatorBytesAccounting(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(27, 16, 4)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	sent := cl.Coord.BytesSent()
	if sent == 0 {
		t.Fatal("no bytes accounted")
	}
	if _, err := fx.Sum(); err != nil {
		t.Fatal(err)
	}
	if cl.Coord.BytesReceived() == 0 {
		t.Fatal("no bytes received accounted")
	}
}

func TestScalarPayloadIDChecks(t *testing.T) {
	// GET on a missing ID propagates the worker error.
	cl := startCluster(t, 1)
	c, err := cl.Coord.Client(cl.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallOne(fedrpc.Request{Type: fedrpc.Get, ID: 4242}); err == nil {
		t.Fatal("missing object GET succeeded")
	}
}

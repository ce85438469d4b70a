package federated_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exdra/internal/federated"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

// TestPropFederatedEqualsLocal is the randomized counterpart of the Table 1
// coverage test: random shapes, random worker counts, random op — federated
// execution must equal local execution element-wise.
func TestPropFederatedEqualsLocal(t *testing.T) {
	cl := startCluster(t, 3)
	f := func(seed int64, rowsSeed, colsSeed, opSeed, nwSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(rowsSeed%20) + 3
		cols := int(colsSeed%6) + 1
		nw := int(nwSeed%3) + 1
		if rows < nw {
			rows = nw
		}
		x := matrix.Randn(rng, rows, cols, 0, 1)
		fx, err := federated.Distribute(cl.Coord, x, cl.Addrs[:nw], federated.RowPartitioned, privacy.Public)
		if err != nil {
			t.Logf("distribute: %v", err)
			return false
		}
		defer cl.Coord.ClearAll()
		switch opSeed % 5 {
		case 0: // sum
			got, err := fx.Sum()
			return err == nil && math.Abs(got-x.Sum()) < 1e-9
		case 1: // matvec + consolidate
			v := matrix.Randn(rng, cols, 1, 0, 1)
			fed, _, err := fx.MatVec(v)
			if err != nil {
				return false
			}
			got, err := fed.Consolidate()
			return err == nil && got.EqualApprox(x.MatMul(v), 1e-9)
		case 2: // tsmm
			got, err := fx.QueueTSMM().Get()
			return err == nil && got.EqualApprox(x.TSMM(), 1e-8)
		case 3: // scalar op + row aggregate
			sq, err := fx.BinaryScalar(matrix.OpPow, 2, false)
			if err != nil {
				return false
			}
			fed, _, err := sq.RowAgg(matrix.AggSum)
			if err != nil {
				return false
			}
			got, err := fed.Consolidate()
			want := x.Mul(x).RowSums()
			return err == nil && got.EqualApprox(want, 1e-9)
		default: // transpose round trip
			ft, err := fx.Transpose()
			if err != nil {
				return false
			}
			got, err := ft.Consolidate()
			return err == nil && got.EqualApprox(x.Transpose(), 0)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSliceComposition checks that federated slicing composes like
// local slicing for random nested ranges.
func TestPropSliceComposition(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(404, 30, 8)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aSeed, bSeed, cSeed, dSeed uint8) bool {
		rb := int(aSeed % 20)
		re := rb + int(bSeed%(uint8(30-rb))) + 1
		cb := int(cSeed % 6)
		ce := cb + int(dSeed%(uint8(8-cb))) + 1
		fs, err := fx.Slice(rb, re, cb, ce)
		if err != nil {
			return false
		}
		got, err := fs.Consolidate()
		if err != nil {
			return false
		}
		return got.EqualApprox(x.Slice(rb, re, cb, ce), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genMatrix draws a small random matrix with dimensions derived from the
// quick-check seed values, keeping shapes compatible where needed.
func genMatrix(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = math.Round(rng.NormFloat64()*100) / 10 // keep values exact-ish
	}
	return m
}

func dims(seed uint8) int { return int(seed%7) + 1 }

func TestPropTransposeMatMul(t *testing.T) {
	t.Parallel()
	// (A B)ᵀ = Bᵀ Aᵀ
	f := func(seed int64, r, k, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, dims(r), dims(k))
		b := genMatrix(rng, dims(k), dims(c))
		left := a.MatMul(b).Transpose()
		right := b.Transpose().MatMul(a.Transpose())
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulDistributes(t *testing.T) {
	t.Parallel()
	// A (B + C) = A B + A C
	f := func(seed int64, r, k, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, dims(r), dims(k))
		b := genMatrix(rng, dims(k), dims(c))
		cc := genMatrix(rng, dims(k), dims(c))
		left := a.MatMul(b.Add(cc))
		right := a.MatMul(b).Add(a.MatMul(cc))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropRBindSum(t *testing.T) {
	t.Parallel()
	// sum(rbind(A,B)) = sum(A) + sum(B); same for colSums.
	f := func(seed int64, r1, r2, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genMatrix(rng, dims(r1), dims(c))
		b := genMatrix(rng, dims(r2), dims(c))
		r := RBind(a, b)
		if math.Abs(r.Sum()-(a.Sum()+b.Sum())) > 1e-9 {
			return false
		}
		return r.ColSums().EqualApprox(a.ColSums().Add(b.ColSums()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSliceRBindIdentity(t *testing.T) {
	t.Parallel()
	// rbind(X[0:k,], X[k:n,]) = X
	f := func(seed int64, r, c, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genMatrix(rng, dims(r)+1, dims(c))
		k := int(cut) % (m.Rows() + 1)
		return RBind(m.SliceRows(0, k), m.SliceRows(k, m.Rows())).EqualApprox(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTSMMSymmetric(t *testing.T) {
	t.Parallel()
	f := func(seed int64, r, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genMatrix(rng, dims(r), dims(c))
		s := m.TSMM()
		return s.EqualApprox(s.Transpose(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxRowsNormalized(t *testing.T) {
	t.Parallel()
	f := func(seed int64, r, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genMatrix(rng, dims(r), dims(c))
		rs := m.Softmax().RowSums()
		for i := 0; i < rs.Rows(); i++ {
			if math.Abs(rs.At(i, 0)-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropReplaceIdempotent(t *testing.T) {
	t.Parallel()
	f := func(seed int64, r, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genMatrix(rng, dims(r), dims(c))
		once := m.Replace(0, -1)
		twice := once.Replace(0, -1)
		return once.EqualApprox(twice, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropBinaryIORoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64, r, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genMatrix(rng, dims(r), dims(c))
		var buf bytes.Buffer
		if err := m.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		return err == nil && got.EqualApprox(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

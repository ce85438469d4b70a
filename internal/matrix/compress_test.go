package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// oneHotLike builds a matrix dominated by repeated values (compressible).
func oneHotLike(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		m.Set(i, rng.Intn(cols), 1)
	}
	return m
}

func TestCompressRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	m := oneHotLike(rng, 200, 12)
	c := Compress(m)
	if !c.Decompress().EqualApprox(m, 0) {
		t.Fatal("round trip")
	}
	if c.Rows() != 200 || c.Cols() != 12 {
		t.Fatal("dims")
	}
	// One-hot columns have 2 distinct values: massive compression.
	if c.CompressionRatio() < 1.8 {
		t.Fatalf("ratio %g too low for one-hot data", c.CompressionRatio())
	}
	// Random dense data does not compress (dictionary per cell).
	d := Randn(rng, 100, 4, 0, 1)
	if Compress(d).CompressionRatio() > 1 {
		t.Fatal("random data should not compress")
	}
}

func TestPropCompressRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64, r, cc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewDense(dims(r)+1, dims(cc))
		for i := range m.data {
			m.data[i] = float64(rng.Intn(4)) // small value domain
		}
		c := Compress(m)
		return c.Decompress().EqualApprox(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

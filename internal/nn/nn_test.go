package nn

import (
	"math"
	"math/rand"
	"testing"

	"exdra/internal/data"
	"exdra/internal/matrix"
)

func TestAffineForwardBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := newAffine(4, 3, rng)
	x := matrix.Randn(rng, 5, 4, 0, 1)
	out := a.Forward(x)
	if out.Rows() != 5 || out.Cols() != 3 {
		t.Fatalf("forward shape %dx%d", out.Rows(), out.Cols())
	}
	dx := a.Backward(matrix.Fill(5, 3, 1), true)
	if dx.Rows() != 5 || dx.Cols() != 4 {
		t.Fatal("backward shape")
	}
	if a.dw.Rows() != 4 || a.db.Cols() != 3 {
		t.Fatal("grad shapes")
	}
}

// numericGrad checks analytic gradients against central differences.
func numericGrad(t *testing.T, net *Network, x, y *matrix.Dense, param *matrix.Dense, grad *matrix.Dense, tol float64) {
	t.Helper()
	const eps = 1e-5
	idxs := []int{0, param.Size() / 2, param.Size() - 1}
	for _, idx := range idxs {
		orig := param.Data()[idx]
		param.Data()[idx] = orig + eps
		lp := net.Loss(x, y)
		param.Data()[idx] = orig - eps
		lm := net.Loss(x, y)
		param.Data()[idx] = orig
		want := (lp - lm) / (2 * eps)
		net.Loss(x, y) // restore gradients at orig
		got := grad.Data()[idx]
		if math.Abs(got-want) > tol*(math.Abs(want)+1e-4) {
			t.Fatalf("grad[%d]=%g, numeric %g", idx, got, want)
		}
	}
}

func TestFFNGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := NewNetwork(FFNSpec(6, 5, 3, LossSoftmaxCE), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.Randn(rng, 8, 6, 0, 1)
	y := matrix.NewDense(8, 1)
	for i := 0; i < 8; i++ {
		y.Set(i, 0, float64(rng.Intn(3)+1))
	}
	net.Loss(x, y)
	params, grads := net.Params(), net.Grads()
	for i := range params {
		numericGrad(t, net, x, y, params[i], grads[i], 1e-3)
	}
}

func TestMSEGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewNetwork(FFNSpec(4, 6, 1, LossMSE), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.Randn(rng, 7, 4, 0, 1)
	y := matrix.Randn(rng, 7, 1, 0, 1)
	net.Loss(x, y)
	params, grads := net.Params(), net.Grads()
	for i := range params {
		numericGrad(t, net, x, y, params[i], grads[i], 1e-3)
	}
}

func TestCNNGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Tiny geometry for the finite-difference check.
	spec := Spec{
		Layers: []LayerSpec{
			{Kind: KindConv2D, Channels: 1, Height: 6, Width: 6, Filters: 2, FilterSize: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, Channels: 2, Height: 6, Width: 6, PoolSize: 2},
			{Kind: KindAffine, In: 2 * 3 * 3, Out: 2},
		},
		Loss:    LossSoftmaxCE,
		Classes: 2,
	}
	net, err := NewNetwork(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.Randn(rng, 3, 36, 0, 1)
	y := matrix.ColVector([]float64{1, 2, 1})
	net.Loss(x, y)
	params, grads := net.Params(), net.Grads()
	for i := range params {
		numericGrad(t, net, x, y, params[i], grads[i], 2e-3)
	}
}

func TestConvOutputGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ls := LayerSpec{Kind: KindConv2D, Channels: 1, Height: 28, Width: 28,
		Filters: 4, FilterSize: 5, Stride: 1, Pad: 2}
	c := newConv2D(ls, rng)
	x := matrix.Randn(rng, 2, 784, 0, 1)
	out := c.Forward(x)
	if out.Cols() != 4*28*28 {
		t.Fatalf("conv output cols %d", out.Cols())
	}
	p := newMaxPool(LayerSpec{Kind: KindMaxPool, Channels: 4, Height: 28, Width: 28, PoolSize: 2})
	pooled := p.Forward(out)
	if pooled.Cols() != 4*14*14 {
		t.Fatalf("pool output cols %d", pooled.Cols())
	}
	dx := p.Backward(matrix.Fill(2, pooled.Cols(), 1), true)
	if dx.Cols() != out.Cols() {
		t.Fatal("pool backward shape")
	}
}

func TestFFNLearnsMultiClass(t *testing.T) {
	x, y := data.MultiClass(6, 400, 10, 3)
	rng := rand.New(rand.NewSource(7))
	net, err := NewNetwork(FFNSpec(10, 32, 3, LossSoftmaxCE), rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(OptimizerConfig{Kind: "nesterov", LR: 0.05, Mu: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	first := net.Loss(x, y)
	for epoch := 0; epoch < 30; epoch++ {
		for b := 0; b < 400; b += 64 {
			e := b + 64
			if e > 400 {
				e = 400
			}
			net.Loss(x.SliceRows(b, e), y.SliceRows(b, e))
			opt.Step(net.Params(), net.Grads())
		}
	}
	last := net.Loss(x, y)
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	if acc := net.Accuracy(x, y); acc < 0.95 {
		t.Fatalf("FFN accuracy %g", acc)
	}
}

func TestSetParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, _ := NewNetwork(FFNSpec(3, 4, 2, LossSoftmaxCE), rng)
	b, _ := NewNetwork(FFNSpec(3, 4, 2, LossSoftmaxCE), rng)
	if err := b.SetParams(a.Params()); err != nil {
		t.Fatal(err)
	}
	x := matrix.Randn(rng, 5, 3, 0, 1)
	if !a.Forward(x).EqualApprox(b.Forward(x), 0) {
		t.Fatal("SetParams did not copy")
	}
	// The copy is deep: mutating the source must not affect the target.
	a.Params()[0].Set(0, 0, 999)
	if b.Params()[0].At(0, 0) == 999 {
		t.Fatal("SetParams aliases")
	}
	// Mismatched shapes rejected.
	c, _ := NewNetwork(FFNSpec(3, 5, 2, LossSoftmaxCE), rng)
	if err := c.SetParams(a.Params()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestOptimizerConfigs(t *testing.T) {
	if _, err := NewOptimizer(OptimizerConfig{Kind: "adamw"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	// Plain SGD step moves against the gradient.
	p := []*matrix.Dense{matrix.Fill(1, 1, 1)}
	g := []*matrix.Dense{matrix.Fill(1, 1, 2)}
	opt, _ := NewOptimizer(OptimizerConfig{Kind: "sgd", LR: 0.5})
	opt.Step(p, g)
	if p[0].At(0, 0) != 0 {
		t.Fatalf("sgd step: %g", p[0].At(0, 0))
	}
}

// TestLossSkipsInputGradientBitwise: Loss no longer asks layer 0 for the
// gradient of its input, and after one Loss and one optimiser step every
// gradient and parameter is bit for bit what a network that still computes
// it reaches, for the FFN and the CNN.
func TestLossSkipsInputGradientBitwise(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		in   int
	}{
		{"ffn", FFNSpec(10, 32, 3, LossSoftmaxCE), 10},
		{"cnn", CNNSpec(1, 6, 6, 2, 3), 36},
	} {
		rng := rand.New(rand.NewSource(9))
		x := matrix.Randn(rng, 7, tc.in, 0, 1)
		y := matrix.ColVector([]float64{1, 2, 3, 1, 2, 3, 1})
		var nets [2]*Network
		var opts [2]Optimizer
		for i := range nets {
			var err error
			if nets[i], err = NewNetwork(tc.spec, rand.New(rand.NewSource(10))); err != nil {
				t.Fatal(err)
			}
			if opts[i], err = NewOptimizer(OptimizerConfig{Kind: "nesterov", LR: 0.05, Mu: 0.9}); err != nil {
				t.Fatal(err)
			}
		}
		loss := nets[0].Loss(x, y)
		refLoss, dout := nets[1].outputGrad(x, y)
		for i := len(nets[1].Layers) - 1; i >= 0; i-- {
			dout = nets[1].Layers[i].Backward(dout, true)
		}
		if dout == nil || dout.Cols() != tc.in {
			t.Fatalf("%s: the reference computed no input gradient", tc.name)
		}
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("%s: loss %v, reference %v", tc.name, loss, refLoss)
		}
		for i := range opts {
			opts[i].Step(nets[i].Params(), nets[i].Grads())
		}
		for _, pair := range [][2][]*matrix.Dense{
			{nets[0].Grads(), nets[1].Grads()},
			{nets[0].Params(), nets[1].Params()},
		} {
			for i, m := range pair[0] {
				for j, v := range m.Data() {
					if w := pair[1][i].Data()[j]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s: tensor %d cell %d is %v, reference %v", tc.name, i, j, v, w)
					}
				}
			}
		}
	}
}

// Package nn implements the neural-network layers and optimizers behind the
// FFN and CNN workloads of the ExDRa evaluation (§6.1): affine, ReLU, 2-D
// convolution, max pooling, softmax cross-entropy and mean-squared-error
// losses, and SGD with optional Nesterov momentum. Networks are described
// by serializable Specs so the federated parameter server can ship the
// architecture to workers (the paper serializes the gradient/update
// functions at setup; see DESIGN.md substitutions).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"exdra/internal/matrix"
)

// LayerKind enumerates the supported layer types.
type LayerKind string

// Supported layer kinds.
const (
	KindAffine  LayerKind = "affine"
	KindReLU    LayerKind = "relu"
	KindConv2D  LayerKind = "conv2d"
	KindMaxPool LayerKind = "maxpool"
)

// LayerSpec describes one layer. Exactly the fields for Kind are used.
type LayerSpec struct {
	Kind LayerKind
	// Affine.
	In, Out int
	// Conv2D / MaxPool: input geometry and filter parameters.
	Channels, Height, Width int
	Filters, FilterSize     int
	Stride, Pad             int
	PoolSize                int
}

// LossKind selects the training loss.
type LossKind string

// Supported losses.
const (
	// LossSoftmaxCE is softmax cross-entropy for 1-based class labels.
	LossSoftmaxCE LossKind = "softmax_ce"
	// LossMSE is mean squared error for regression targets.
	LossMSE LossKind = "mse"
)

// Spec is a serializable network architecture.
type Spec struct {
	Layers []LayerSpec
	Loss   LossKind
	// Classes is the output width (classes for softmax, targets for MSE).
	Classes int
}

// FFNSpec builds the paper's fully-connected feed-forward network:
// in -> hidden (ReLU) -> out.
func FFNSpec(in, hidden, out int, loss LossKind) Spec {
	return Spec{
		Layers: []LayerSpec{
			{Kind: KindAffine, In: in, Out: hidden},
			{Kind: KindReLU},
			{Kind: KindAffine, In: hidden, Out: out},
		},
		Loss:    loss,
		Classes: out,
	}
}

// CNNSpec builds the paper's convolutional network for MNIST-shaped input:
// conv(F filters, 5x5) -> ReLU -> maxpool(2) -> affine -> softmax.
func CNNSpec(channels, height, width, filters, classes int) Spec {
	convH := height // stride 1, pad 2 keeps size with 5x5 filters
	convW := width
	poolH, poolW := convH/2, convW/2
	return Spec{
		Layers: []LayerSpec{
			{Kind: KindConv2D, Channels: channels, Height: height, Width: width,
				Filters: filters, FilterSize: 5, Stride: 1, Pad: 2},
			{Kind: KindReLU},
			{Kind: KindMaxPool, Channels: filters, Height: convH, Width: convW, PoolSize: 2},
			{Kind: KindAffine, In: filters * poolH * poolW, Out: classes},
		},
		Loss:    LossSoftmaxCE,
		Classes: classes,
	}
}

// Layer is a differentiable network layer. Forward caches what Backward
// needs; layers are therefore not safe for concurrent use (each parameter
// server worker owns its own network instance).
type Layer interface {
	Forward(x *matrix.Dense) *matrix.Dense
	// Backward sets the layer's gradients from dout, the loss gradient of
	// its output, and returns the loss gradient of its input when wantDX is
	// set, nil otherwise.
	Backward(dout *matrix.Dense, wantDX bool) *matrix.Dense
	Params() []*matrix.Dense
	Grads() []*matrix.Dense
}

// Network is a feed-forward stack of layers with a loss.
type Network struct {
	Spec   Spec
	Layers []Layer
}

// NewNetwork instantiates a network with freshly initialized parameters
// (He initialization for weight matrices/filters, zero biases).
func NewNetwork(spec Spec, rng *rand.Rand) (*Network, error) {
	switch spec.Loss {
	case LossSoftmaxCE, LossMSE:
	default:
		return nil, fmt.Errorf("nn: unknown loss %q", spec.Loss)
	}
	n := &Network{Spec: spec}
	for _, ls := range spec.Layers {
		switch ls.Kind {
		case KindAffine:
			n.Layers = append(n.Layers, newAffine(ls.In, ls.Out, rng))
		case KindReLU:
			n.Layers = append(n.Layers, &relu{})
		case KindConv2D:
			n.Layers = append(n.Layers, newConv2D(ls, rng))
		case KindMaxPool:
			n.Layers = append(n.Layers, newMaxPool(ls))
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", ls.Kind)
		}
	}
	return n, nil
}

// Forward runs the network on a batch (rows are examples).
func (n *Network) Forward(x *matrix.Dense) *matrix.Dense {
	out := x
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Loss computes the loss and gradients for a batch: y is a 1-based class
// index vector under softmax cross-entropy, or a real target matrix under
// MSE. Gradients accumulate into Grads().
func (n *Network) Loss(x, y *matrix.Dense) float64 {
	loss, dout := n.outputGrad(x, y)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		// Layer 0's input gradient is the gradient of the data, which
		// nothing reads.
		dout = n.Layers[i].Backward(dout, i > 0)
	}
	return loss
}

// outputGrad runs the network forward on a batch and returns the loss and
// its gradient with respect to the network's output.
func (n *Network) outputGrad(x, y *matrix.Dense) (float64, *matrix.Dense) {
	out := n.Forward(x)
	var loss float64
	var dout *matrix.Dense
	switch n.Spec.Loss {
	case LossSoftmaxCE:
		probs := out.Softmax()
		b := float64(x.Rows())
		loss = 0
		dout = probs.Clone()
		for i := 0; i < x.Rows(); i++ {
			c := int(y.At(i, 0)) - 1
			loss += -math.Log(math.Max(probs.At(i, c), 1e-15))
			dout.Set(i, c, dout.At(i, c)-1)
		}
		loss /= b
		dout.ScaleInPlace(1 / b)
	case LossMSE:
		diff := out.Sub(y)
		b := float64(x.Rows())
		loss = diff.Mul(diff).Sum() / (2 * b)
		dout = diff.Scale(1 / b)
	default:
		//lint:ignore nopanic unreachable: NewNetwork validates Spec.Loss at construction
		panic(fmt.Sprintf("nn: unknown loss %q", n.Spec.Loss))
	}
	return loss, dout
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*matrix.Dense {
	var out []*matrix.Dense
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads returns the gradients matching Params.
func (n *Network) Grads() []*matrix.Dense {
	var out []*matrix.Dense
	for _, l := range n.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// SetParams copies values into the network's parameters.
func (n *Network) SetParams(params []*matrix.Dense) error {
	own := n.Params()
	if len(own) != len(params) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(own), len(params))
	}
	for i, p := range params {
		if p.Rows() != own[i].Rows() || p.Cols() != own[i].Cols() {
			return fmt.Errorf("nn: parameter %d shape mismatch", i)
		}
		copy(own[i].Data(), p.Data())
	}
	return nil
}

// Predict returns the 1-based argmax class per row (softmax networks).
func (n *Network) Predict(x *matrix.Dense) *matrix.Dense {
	return n.Forward(x).RowIndexMax()
}

// Accuracy computes classification accuracy against 1-based labels.
func (n *Network) Accuracy(x, y *matrix.Dense) float64 {
	pred := n.Predict(x)
	correct := 0
	for i, p := range pred.Data() {
		if p == y.Data()[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred.Data()))
}

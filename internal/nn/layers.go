package nn

import (
	"math"
	"math/rand"

	"exdra/internal/matrix"
)

// affine is a fully-connected layer: out = x W + b.
type affine struct {
	w, b   *matrix.Dense
	dw, db *matrix.Dense
	x      *matrix.Dense // cached input
}

func newAffine(in, out int, rng *rand.Rand) *affine {
	scale := math.Sqrt(2 / float64(in)) // He initialization
	return &affine{
		w:  matrix.Randn(rng, in, out, 0, scale),
		b:  matrix.NewDense(1, out),
		dw: matrix.NewDense(in, out),
		db: matrix.NewDense(1, out),
	}
}

func (a *affine) Forward(x *matrix.Dense) *matrix.Dense {
	a.x = x
	return x.MatMul(a.w).Add(a.b)
}

func (a *affine) Backward(dout *matrix.Dense, wantDX bool) *matrix.Dense {
	a.dw = a.x.TMatMul(dout)
	a.db = dout.ColSums()
	if !wantDX {
		return nil
	}
	return dout.MatMul(a.w.Transpose())
}

func (a *affine) Params() []*matrix.Dense { return []*matrix.Dense{a.w, a.b} }
func (a *affine) Grads() []*matrix.Dense  { return []*matrix.Dense{a.dw, a.db} }

// relu is the rectified linear activation.
type relu struct {
	mask *matrix.Dense
}

func (r *relu) Forward(x *matrix.Dense) *matrix.Dense {
	r.mask = x.BinaryScalar(matrix.OpGt, 0, false)
	return x.Mul(r.mask)
}

func (r *relu) Backward(dout *matrix.Dense, wantDX bool) *matrix.Dense {
	if !wantDX {
		return nil
	}
	return dout.Mul(r.mask)
}

func (r *relu) Params() []*matrix.Dense { return nil }
func (r *relu) Grads() []*matrix.Dense  { return nil }

// conv2d is a direct 2-D convolution over rows laid out as C x H x W
// (row-major per example).
type conv2d struct {
	spec   LayerSpec
	w      *matrix.Dense // filters x (C*FS*FS)
	b      *matrix.Dense // 1 x filters
	dw, db *matrix.Dense
	x      *matrix.Dense
	outH   int
	outW   int
}

func newConv2D(ls LayerSpec, rng *rand.Rand) *conv2d {
	fan := ls.Channels * ls.FilterSize * ls.FilterSize
	c := &conv2d{
		spec: ls,
		w:    matrix.Randn(rng, ls.Filters, fan, 0, math.Sqrt(2/float64(fan))),
		b:    matrix.NewDense(1, ls.Filters),
		dw:   matrix.NewDense(ls.Filters, fan),
		db:   matrix.NewDense(1, ls.Filters),
	}
	c.outH = (ls.Height+2*ls.Pad-ls.FilterSize)/ls.Stride + 1
	c.outW = (ls.Width+2*ls.Pad-ls.FilterSize)/ls.Stride + 1
	return c
}

func (c *conv2d) inAt(x *matrix.Dense, ex, ch, i, j int) float64 {
	if i < 0 || j < 0 || i >= c.spec.Height || j >= c.spec.Width {
		return 0
	}
	return x.At(ex, (ch*c.spec.Height+i)*c.spec.Width+j)
}

func (c *conv2d) Forward(x *matrix.Dense) *matrix.Dense {
	c.x = x
	ls := c.spec
	out := matrix.NewDense(x.Rows(), ls.Filters*c.outH*c.outW)
	for ex := 0; ex < x.Rows(); ex++ {
		for f := 0; f < ls.Filters; f++ {
			for oi := 0; oi < c.outH; oi++ {
				for oj := 0; oj < c.outW; oj++ {
					sum := c.b.At(0, f)
					for ch := 0; ch < ls.Channels; ch++ {
						for fi := 0; fi < ls.FilterSize; fi++ {
							for fj := 0; fj < ls.FilterSize; fj++ {
								ii := oi*ls.Stride - ls.Pad + fi
								jj := oj*ls.Stride - ls.Pad + fj
								sum += c.w.At(f, (ch*ls.FilterSize+fi)*ls.FilterSize+fj) *
									c.inAt(x, ex, ch, ii, jj)
							}
						}
					}
					out.Set(ex, (f*c.outH+oi)*c.outW+oj, sum)
				}
			}
		}
	}
	return out
}

func (c *conv2d) Backward(dout *matrix.Dense, wantDX bool) *matrix.Dense {
	ls := c.spec
	var dx *matrix.Dense
	if wantDX {
		dx = matrix.NewDense(c.x.Rows(), c.x.Cols())
	}
	c.dw = matrix.NewDense(ls.Filters, ls.Channels*ls.FilterSize*ls.FilterSize)
	c.db = matrix.NewDense(1, ls.Filters)
	for ex := 0; ex < c.x.Rows(); ex++ {
		for f := 0; f < ls.Filters; f++ {
			for oi := 0; oi < c.outH; oi++ {
				for oj := 0; oj < c.outW; oj++ {
					g := dout.At(ex, (f*c.outH+oi)*c.outW+oj)
					if g == 0 {
						continue
					}
					c.db.Set(0, f, c.db.At(0, f)+g)
					for ch := 0; ch < ls.Channels; ch++ {
						for fi := 0; fi < ls.FilterSize; fi++ {
							for fj := 0; fj < ls.FilterSize; fj++ {
								ii := oi*ls.Stride - ls.Pad + fi
								jj := oj*ls.Stride - ls.Pad + fj
								if ii < 0 || jj < 0 || ii >= ls.Height || jj >= ls.Width {
									continue
								}
								wi := (ch*ls.FilterSize + fi) * ls.FilterSize
								c.dw.Set(f, wi+fj, c.dw.At(f, wi+fj)+g*c.inAt(c.x, ex, ch, ii, jj))
								if dx != nil {
									xi := (ch*ls.Height+ii)*ls.Width + jj
									dx.Set(ex, xi, dx.At(ex, xi)+g*c.w.At(f, wi+fj))
								}
							}
						}
					}
				}
			}
		}
	}
	return dx
}

func (c *conv2d) Params() []*matrix.Dense { return []*matrix.Dense{c.w, c.b} }
func (c *conv2d) Grads() []*matrix.Dense  { return []*matrix.Dense{c.dw, c.db} }

// maxpool is a non-overlapping 2-D max pooling layer.
type maxpool struct {
	spec   LayerSpec
	argmax []int
	inCols int
	outH   int
	outW   int
}

func newMaxPool(ls LayerSpec) *maxpool {
	return &maxpool{
		spec: ls,
		outH: ls.Height / ls.PoolSize,
		outW: ls.Width / ls.PoolSize,
	}
}

func (p *maxpool) Forward(x *matrix.Dense) *matrix.Dense {
	ls := p.spec
	p.inCols = x.Cols()
	out := matrix.NewDense(x.Rows(), ls.Channels*p.outH*p.outW)
	p.argmax = make([]int, x.Rows()*out.Cols())
	for ex := 0; ex < x.Rows(); ex++ {
		for ch := 0; ch < ls.Channels; ch++ {
			for oi := 0; oi < p.outH; oi++ {
				for oj := 0; oj < p.outW; oj++ {
					best, bestIdx := math.Inf(-1), 0
					for di := 0; di < ls.PoolSize; di++ {
						for dj := 0; dj < ls.PoolSize; dj++ {
							ii := oi*ls.PoolSize + di
							jj := oj*ls.PoolSize + dj
							idx := (ch*ls.Height+ii)*ls.Width + jj
							if v := x.At(ex, idx); v > best {
								best, bestIdx = v, idx
							}
						}
					}
					oidx := (ch*p.outH+oi)*p.outW + oj
					out.Set(ex, oidx, best)
					p.argmax[ex*out.Cols()+oidx] = bestIdx
				}
			}
		}
	}
	return out
}

func (p *maxpool) Backward(dout *matrix.Dense, wantDX bool) *matrix.Dense {
	if !wantDX {
		return nil
	}
	dx := matrix.NewDense(dout.Rows(), p.inCols)
	for ex := 0; ex < dout.Rows(); ex++ {
		for o := 0; o < dout.Cols(); o++ {
			idx := p.argmax[ex*dout.Cols()+o]
			dx.Set(ex, idx, dx.At(ex, idx)+dout.At(ex, o))
		}
	}
	return dx
}

func (p *maxpool) Params() []*matrix.Dense { return nil }
func (p *maxpool) Grads() []*matrix.Dense  { return nil }

package matrix

import (
	"fmt"
	"math"
)

// blockSize is the cache-blocking tile edge for the matmul kernels.
const blockSize = 64

// MatMul returns m %*% b. The kernel is cache-blocked over the inner
// dimension and parallelized over row bands, mirroring the role of a BLAS
// dgemm in SystemDS' local backend. A one-column b (X %*% v) is one dot per
// row instead: k-ascending with the same zero skip, so bit for bit the
// blocked loop's result.
func (m *Dense) MatMul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: matmul shape mismatch %dx%d %%*%% %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	n, k, p := m.rows, m.cols, b.cols
	if p == 1 {
		v := b.data
		parallelFor(n, k, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 0.0
				for kk, a := range m.data[i*k : (i+1)*k] {
					if a != 0 {
						s += a * v[kk]
					}
				}
				out.data[i] = s
			}
		})
		return out
	}
	parallelFor(n, k*p, func(lo, hi int) { matMulBand(m, b, out, lo, hi) })
	return out
}

// matMulBand accumulates rows [lo, hi) of m %*% b into out, blocked over the
// inner dimension.
func matMulBand(m, b, out *Dense, lo, hi int) {
	k, p := m.cols, b.cols
	for kb := 0; kb < k; kb += blockSize {
		kEnd := kb + blockSize
		if kEnd > k {
			kEnd = k
		}
		for i := lo; i < hi; i++ {
			arow := m.data[i*k : (i+1)*k]
			orow := out.data[i*p : (i+1)*p]
			for kk := kb; kk < kEnd; kk++ {
				a := arow[kk]
				if a == 0 {
					continue
				}
				brow := b.data[kk*p : (kk+1)*p]
				for j, bv := range brow {
					orow[j] += a * bv
				}
			}
		}
	}
}

// tmmGroup is the column-band granularity of TMatMul: eight output rows of
// a one-column result fill one 64-byte cache line, so no two bands share one.
const tmmGroup = 8

// TMatMul returns t(m) %*% b without materialising t(m): it walks m
// row-major and, for every nonzero m[r,i], adds m[r,i]*b[r,] into output row
// i. Bands run over m's columns — the output's rows — in whole tmmGroups,
// never over m's rows with partials, so every output cell accumulates in
// row-ascending order with the zero skip of MatMul over the transpose: bit
// for bit that result at any parallelism.
func (m *Dense) TMatMul(b *Dense) *Dense {
	if m.rows != b.rows {
		panic(fmt.Sprintf("matrix: tmatmul shape mismatch t(%dx%d) %%*%% %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	n, k, p := m.rows, m.cols, b.cols
	out := NewDense(k, p)
	parallelFor((k+tmmGroup-1)/tmmGroup, tmmGroup*n*p, func(lo, hi int) {
		cb, ce := lo*tmmGroup, min(hi*tmmGroup, k)
		if p == 1 {
			o := out.data[cb:ce]
			for r, bv := range b.data {
				for i, a := range m.data[r*k+cb : r*k+ce] {
					if a != 0 {
						o[i] += a * bv
					}
				}
			}
			return
		}
		// Four rows of m at a time, so an output row is loaded and stored
		// once per four contributions.
		mrow := func(r int) []float64 { return m.data[r*k+cb : r*k+ce] }
		brow := func(r int) []float64 { return b.data[r*p : (r+1)*p] }
		orow := func(i int) []float64 { return out.data[(cb+i)*p : (cb+i+1)*p] }
		r := 0
		for ; r+4 <= n; r += 4 {
			m0, m1, m2, m3 := mrow(r), mrow(r+1), mrow(r+2), mrow(r+3)
			b0, b1, b2, b3 := brow(r), brow(r+1), brow(r+2), brow(r+3)
			for i := range m0 {
				tmmRows4(orow(i), b0, b1, b2, b3, m0[i], m1[i], m2[i], m3[i])
			}
		}
		for ; r < n; r++ {
			for i, a := range mrow(r) {
				tmmRow(orow(i), brow(r), a)
			}
		}
	})
	return out
}

// tmmRow adds a*brow into orow, and nothing at all when a is zero.
func tmmRow(orow, brow []float64, a float64) {
	if a == 0 {
		return
	}
	brow = brow[:len(orow)]
	for j := range orow {
		orow[j] += a * brow[j]
	}
}

// tmmRows4 adds four consecutive rows' contributions a_q*b_q into orow. When
// none of the a_q is zero each cell takes the four in one pass, added in
// row order exactly as four tmmRow calls would add them; otherwise it is
// those four calls.
func tmmRows4(orow, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		tmmRow(orow, b0, a0)
		tmmRow(orow, b1, a1)
		tmmRow(orow, b2, a2)
		tmmRow(orow, b3, a3)
		return
	}
	d := len(orow)
	b0, b1, b2, b3 = b0[:d], b1[:d], b2[:d], b3[:d]
	for j, o := range orow {
		orow[j] = o + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// TSMM returns the transpose-self matrix multiplication t(m) %*% m,
// exploiting symmetry of the result.
func (m *Dense) TSMM() *Dense {
	k, n := m.rows, m.cols
	out := NewDense(n, n)
	// Accumulate per-band partials to keep the parallel loop race-free, then
	// reduce. Bands run over the shared dimension k.
	threads := threadsFor(k)
	if threads <= 1 || k*n*n < parallelThreshold {
		tsmmBand(m, out, 0, k)
	} else {
		partials := make([]*Dense, threads)
		chunk := (k + threads - 1) / threads
		parallelFor(threads, chunk*n*n, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				rb, re := band(t, chunk, k)
				if rb >= re {
					continue
				}
				p := NewDense(n, n)
				tsmmBand(m, p, rb, re)
				partials[t] = p
			}
		})
		for _, p := range partials {
			if p != nil {
				out.AddInPlace(p)
			}
		}
	}
	// Mirror the upper triangle into the lower triangle.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.data[j*n+i] = out.data[i*n+j]
		}
	}
	return out
}

// tsmmBand accumulates t(m[rb:re,]) %*% m[rb:re,] into the upper triangle
// of out.
func tsmmBand(m, out *Dense, rb, re int) {
	n := m.cols
	for r := rb; r < re; r++ {
		row := m.Row(r)
		for i, a := range row {
			if a == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				orow[j] += a * row[j]
			}
		}
	}
}

// MMChain computes the fused matrix-multiplication chain
// t(X) %*% (w * (X %*% v)) when w is non-nil, or t(X) %*% (X %*% v) when w
// is nil — the pattern used by LM and MLogReg inner loops (SystemDS mmchain).
// v may hold k right-hand sides (cols x k, with w nil or rows x k): column c
// of the result is bit for bit the chain of v[,c] and w[,c] alone — same row
// bands, same j-ascending dot order, same skip of a zero dot — so one pass
// over X serves k independent Hessian-vector products.
func (m *Dense) MMChain(v, w *Dense) *Dense {
	if m.cols != v.rows || v.cols < 1 {
		panic(fmt.Sprintf("matrix: mmchain of %dx%d needs v of shape %dxk, have %dx%d",
			m.rows, m.cols, m.cols, v.rows, v.cols))
	}
	if w != nil && (w.rows != m.rows || w.cols != v.cols) {
		panic(fmt.Sprintf("matrix: mmchain of %dx%d with v %dx%d needs w of shape %dx%d, have %dx%d",
			m.rows, m.cols, v.rows, v.cols, m.rows, v.cols, w.rows, w.cols))
	}
	n, d, k := m.rows, m.cols, v.cols
	// Right-hand sides and partials are held column by column (k x d; for
	// k == 1 that is v's own layout), so every column runs over contiguous
	// memory and a row of X is read from memory once for all k.
	vt := v.data
	if k > 1 {
		vt = v.Transpose().data
	}
	weight := func(i, c int) float64 {
		if w == nil {
			return 1 // exact: x*1 == x bit for bit
		}
		return w.data[i*k+c]
	}
	threads := threadsFor(n)
	chunk := (n + threads - 1) / threads
	partials := make([][]float64, threads)
	parallelFor(threads, chunk*d*k*2, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			rb, re := band(t, chunk, n)
			if rb >= re {
				continue
			}
			p := make([]float64, k*d)
			for i := rb; i < re; i++ {
				row := m.data[i*d : (i+1)*d]
				c := 0
				for ; c+4 <= k; c += 4 {
					mmchainRow4(row, vt[c*d:(c+4)*d], p[c*d:(c+4)*d],
						[4]float64{weight(i, c), weight(i, c+1), weight(i, c+2), weight(i, c+3)})
				}
				for ; c < k; c++ {
					axpyNonzero(p[c*d:(c+1)*d], row, dot(row, vt[c*d:(c+1)*d])*weight(i, c))
				}
			}
			partials[t] = p
		}
	})
	out := NewDense(k, d)
	for _, p := range partials {
		for i, x := range p {
			out.data[i] += x
		}
	}
	if k == 1 {
		out.rows, out.cols = d, 1
		return out
	}
	return out.Transpose()
}

// mmchainRow4 is the chain of one row of X for four right-hand sides (v and
// p hold four consecutive length-d columns). The four dots accumulate side
// by side — independent chains, each in j-ascending order.
func mmchainRow4(row, v, p []float64, w [4]float64) {
	d := len(row)
	v0, v1, v2, v3 := v[:d], v[d:2*d], v[2*d:3*d], v[3*d:4*d]
	var d0, d1, d2, d3 float64
	for j, a := range row {
		d0 += a * v0[j]
		d1 += a * v1[j]
		d2 += a * v2[j]
		d3 += a * v3[j]
	}
	d0, d1, d2, d3 = d0*w[0], d1*w[1], d2*w[2], d3*w[3]
	p0, p1, p2, p3 := p[:d], p[d:2*d], p[2*d:3*d], p[3*d:4*d]
	if d0 == 0 || d1 == 0 || d2 == 0 || d3 == 0 {
		axpyNonzero(p0, row, d0)
		axpyNonzero(p1, row, d1)
		axpyNonzero(p2, row, d2)
		axpyNonzero(p3, row, d3)
		return
	}
	for j, a := range row {
		p0[j] += a * d0
		p1[j] += a * d1
		p2[j] += a * d2
		p3[j] += a * d3
	}
}

// dot returns the j-ascending inner product of row and v[:len(row)].
func dot(row, v []float64) float64 {
	v = v[:len(row)]
	s := 0.0
	for j, a := range row {
		s += a * v[j]
	}
	return s
}

// axpyNonzero adds s*row into p, and nothing at all when s is zero.
func axpyNonzero(p, row []float64, s float64) {
	if s == 0 {
		return
	}
	p = p[:len(row)]
	for j, a := range row {
		p[j] += a * s
	}
}

// Transpose returns t(m), blocked for cache locality.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	r, c := m.rows, m.cols
	parallelFor((r+blockSize-1)/blockSize, blockSize*c, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			ib, ie := bi*blockSize, (bi+1)*blockSize
			if ie > r {
				ie = r
			}
			for jb := 0; jb < c; jb += blockSize {
				je := jb + blockSize
				if je > c {
					je = c
				}
				for i := ib; i < ie; i++ {
					for j := jb; j < je; j++ {
						out.data[j*r+i] = m.data[i*c+j]
					}
				}
			}
		}
	})
	return out
}

// Dot returns the inner product of two vectors (any orientation) with equal
// cell counts.
func Dot(a, b *Dense) float64 {
	if len(a.data) != len(b.data) {
		panic("matrix: dot length mismatch")
	}
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of all cells.
func (m *Dense) Norm2() float64 {
	return math.Sqrt(m.Agg(AggSumSq))
}

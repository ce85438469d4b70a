package matrix

import (
	"fmt"
	"math"
)

// blockSize is the cache-blocking tile edge of Transpose.
const blockSize = 64

// useAVX2 selects the assembly kernels of avx2_amd64.go, which compute the
// Go kernels' results bit for bit: CPUID decides, and tests turn it off to
// check both paths.
var useAVX2 = haveAVX2

// MatMul returns m %*% b, parallelized over row bands, mirroring the role of
// a BLAS dgemm in SystemDS' local backend. Every output cell accumulates its
// terms k-ascending from zero and skips a zero cell of m, as the textbook
// i-k-j loop does; the kernels only choose how many independent cells one
// sweep carries in locals, so the result is bit for bit that loop's at any
// parallelism.
func (m *Dense) MatMul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: matmul shape mismatch %dx%d %%*%% %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	n, k, p := m.rows, m.cols, b.cols
	if p == 1 {
		parallelFor(n, k, func(lo, hi int) { matVecBand(m, b.data, out.data, lo, hi) })
		return out
	}
	parallelFor(n, k*p, func(lo, hi int) { matMulBand(m, b, out, lo, hi) })
	return out
}

// matVecBand sets out[lo:hi] to the dots of m's rows with v: four rows'
// k-ascending chains side by side, each skipping its own zero cells.
func matVecBand(m *Dense, v, out []float64, lo, hi int) {
	k := m.cols
	if useAVX2 && k > 0 && hi-lo >= 8 {
		n8 := (hi - lo) &^ 7
		rowDotsAVX2(&m.data[lo*k], k, &v[0], &out[lo], n8, true)
		lo += n8
	}
	v = v[:k]
	row := func(i int) []float64 { return m.data[i*k : (i+1)*k][:len(v)] }
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		var s0, s1, s2, s3 float64
		for kk, x := range v {
			if a := r0[kk]; a != 0 {
				s0 += a * x
			}
			if a := r1[kk]; a != 0 {
				s1 += a * x
			}
			if a := r2[kk]; a != 0 {
				s2 += a * x
			}
			if a := r3[kk]; a != 0 {
				s3 += a * x
			}
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		s := 0.0
		for kk, a := range row(i) {
			if a != 0 {
				s += a * v[kk]
			}
		}
		out[i] = s
	}
}

// matMulBand sets rows [lo, hi) of out to those of m %*% b. A sweep runs a
// tile of two output rows by four output columns over all of k in locals,
// so one load of b feeds two cells and one load of m four: eight
// accumulators, four b values and two m values fill the sixteen SSE
// registers, where a four-by-four tile spills.
func matMulBand(m, b, out *Dense, lo, hi int) {
	k, p := m.cols, b.cols
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := m.data[i*k : (i+1)*k]
		a1 := m.data[(i+1)*k : (i+2)*k][:len(a0)]
		o0 := out.data[i*p : (i+1)*p]
		o1 := out.data[(i+1)*p : (i+2)*p]
		j := 0
		if useAVX2 && k > 0 {
			matMulPairAVX2(&a0[0], &a1[0], &b.data[0], &o0[0], &o1[0], k, p)
			j = p
		}
		for ; j+4 <= p; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for kk, x0 := range a0 {
				bb := b.data[kk*p+j : kk*p+j+4]
				b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
				if x0 != 0 {
					c00 += x0 * b0
					c01 += x0 * b1
					c02 += x0 * b2
					c03 += x0 * b3
				}
				if x1 := a1[kk]; x1 != 0 {
					c10 += x1 * b0
					c11 += x1 * b1
					c12 += x1 * b2
					c13 += x1 * b3
				}
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < p; j++ {
			var c0, c1 float64
			for kk, x0 := range a0 {
				bv := b.data[kk*p+j]
				if x0 != 0 {
					c0 += x0 * bv
				}
				if x1 := a1[kk]; x1 != 0 {
					c1 += x1 * bv
				}
			}
			o0[j], o1[j] = c0, c1
		}
	}
	if i < hi {
		orow := out.data[i*p : (i+1)*p]
		for kk, a := range m.data[i*k : (i+1)*k] {
			tmmRow(orow, b.data[kk*p:(kk+1)*p], a)
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
		// Four rows of m at a time, so an output cell or row is loaded and
		// stored once per four contributions.
		mrow := func(r int) []float64 { return m.data[r*k+cb : r*k+ce] }
		if p == 1 {
			r := 0
			if useAVX2 && n >= 4 {
				r = n &^ 3
				tmatVecAVX2(&out.data[cb], &m.data[cb], k, &b.data[0], r, ce-cb)
			}
			tmatVecBand(out.data[cb:ce], b.data[r:], func(i int) []float64 { return mrow(r + i) })
			return
		}
		brow := func(r int) []float64 { return b.data[r*p : (r+1)*p] }
		orow := func(i int) []float64 { return out.data[(cb+i)*p : (cb+i+1)*p] }
		r := 0
		if useAVX2 {
			for ; r+4 <= n; r += 4 {
				tmmRows4AVX2(&m.data[r*k+cb], k, &b.data[r*p], p, 0, &out.data[cb*p], p, p, 0, ce-cb)
			}
		}
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

// tmatVecBand adds t(m[,cb:ce]) %*% y into o, where mrow(r) is row r of
// m[,cb:ce]: each cell takes four rows' terms per load and store, in row
// order, each skipped when its cell of m is zero.
func tmatVecBand(o, y []float64, mrow func(r int) []float64) {
	n := len(y)
	r := 0
	for ; r+4 <= n; r += 4 {
		m0 := mrow(r)
		m1, m2, m3 := mrow(r + 1)[:len(m0)], mrow(r + 2)[:len(m0)], mrow(r + 3)[:len(m0)]
		y0, y1, y2, y3 := y[r], y[r+1], y[r+2], y[r+3]
		o := o[:len(m0)]
		for i, s := range o {
			if a := m0[i]; a != 0 {
				s += a * y0
			}
			if a := m1[i]; a != 0 {
				s += a * y1
			}
			if a := m2[i]; a != 0 {
				s += a * y2
			}
			if a := m3[i]; a != 0 {
				s += a * y3
			}
			o[i] = s
		}
	}
	for ; r < n; r++ {
		y0 := y[r]
		for i, a := range mrow(r) {
			if a != 0 {
				o[i] += a * y0
			}
		}
	}
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
// of out, four rows of m per pass over an output row (tmmRows4), so every
// cell adds its rows' terms in row order with the zero skip of one row at a
// time.
func tsmmBand(m, out *Dense, rb, re int) {
	n := m.cols
	orow := func(i int) []float64 { return out.data[i*n+i : (i+1)*n] }
	r := rb
	if useAVX2 && n > 0 {
		for ; r+4 <= re; r += 4 {
			tmmRows4AVX2(&m.data[r*n], n, &m.data[r*n], n, 1, &out.data[0], n+1, n, 1, n)
		}
	}
	for ; r+4 <= re; r += 4 {
		m0, m1, m2, m3 := m.Row(r), m.Row(r+1), m.Row(r+2), m.Row(r+3)
		for i, a0 := range m0 {
			tmmRows4(orow(i), m0[i:], m1[i:], m2[i:], m3[i:], a0, m1[i], m2[i], m3[i])
		}
	}
	for ; r < re; r++ {
		row := m.Row(r)
		for i, a := range row {
			tmmRow(orow(i), row[i:], a)
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
	// memory and a row of X is read from memory once for all k. The AVX2
	// kernel reads four right-hand sides at a time from v's own rows.
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
			row := func(i int) []float64 { return m.data[i*d : (i+1)*d] }
			i := rb
			switch {
			case k == 1:
				if useAVX2 && d > 0 {
					// mmchainRows4 eight rows at a time: the dots, then
					// each group of four's terms in row order.
					var s [8]float64
					for ; i+8 <= re; i += 8 {
						rowDotsAVX2(&m.data[i*d], d, &vt[0], &s[0], 8, false)
						for q := range s {
							s[q] *= weight(i+q, 0)
						}
						tmmRows4AVX2(&s[0], 1, &m.data[i*d], d, 0, &p[0], 0, d, 0, 1)
						tmmRows4AVX2(&s[4], 1, &m.data[(i+4)*d], d, 0, &p[0], 0, d, 0, 1)
					}
				}
				for ; i+4 <= re; i += 4 {
					mmchainRows4(m.data[i*d:(i+4)*d], vt, p,
						[4]float64{weight(i, 0), weight(i+1, 0), weight(i+2, 0), weight(i+3, 0)})
				}
			case k >= 4:
				if useAVX2 && d > 0 {
					// mmchainRows2x4 four rows at a time: the sixteen dots,
					// then each column's four terms in row order.
					var s [16]float64
					for ; i+4 <= re; i += 4 {
						for c := 0; c+4 <= k; c += 4 {
							mmchainDots4x4AVX2(&m.data[i*d], d, &v.data[c], k, &s)
							for q := range 4 {
								for cc := range 4 {
									s[4*q+cc] *= weight(i+q, c+cc)
								}
							}
							tmmRows4AVX2(&s[0], 4, &m.data[i*d], d, 0, &p[c*d], d, d, 0, 4)
						}
						for c := k &^ 3; c < k; c++ {
							pc, vc := p[c*d:(c+1)*d], vt[c*d:(c+1)*d]
							for q := range 4 {
								r := row(i + q)
								axpyNonzero(pc, r, dot(r, vc)*weight(i+q, c))
							}
						}
					}
				}
				for ; i+2 <= re; i += 2 {
					r0, r1 := row(i), row(i+1)
					c := 0
					for ; c+4 <= k; c += 4 {
						mmchainRows2x4(r0, r1, vt[c*d:(c+4)*d], p[c*d:(c+4)*d],
							[4]float64{weight(i, c), weight(i, c+1), weight(i, c+2), weight(i, c+3)},
							[4]float64{weight(i+1, c), weight(i+1, c+1), weight(i+1, c+2), weight(i+1, c+3)})
					}
					for ; c < k; c++ {
						pc, vc := p[c*d:(c+1)*d], vt[c*d:(c+1)*d]
						axpyNonzero(pc, r0, dot(r0, vc)*weight(i, c))
						axpyNonzero(pc, r1, dot(r1, vc)*weight(i+1, c))
					}
				}
			}
			for ; i < re; i++ {
				r := row(i)
				for c := 0; c < k; c++ {
					axpyNonzero(p[c*d:(c+1)*d], r, dot(r, vt[c*d:(c+1)*d])*weight(i, c))
				}
			}
			partials[t] = p
		}
	})
	// Partials are k x d; the sum lands transposed, in v's d x k layout.
	out := NewDense(d, k)
	for _, p := range partials {
		for i, x := range p {
			out.data[i%d*k+i/d] += x
		}
	}
	return out
}

// mmchainRows4 is the chain of four consecutive rows of X (rows holds
// them) for one right-hand side v. The four dots accumulate side by side —
// independent chains, each in j-ascending order — and each cell of p then
// takes the four rows' terms in row order, each skipped when its scaled dot
// is zero.
func mmchainRows4(rows, v, p []float64, w [4]float64) {
	d := len(v)
	p = p[:d]
	r0, r1, r2, r3 := rows[:d], rows[d:2*d], rows[2*d:3*d], rows[3*d:4*d]
	var d0, d1, d2, d3 float64
	for j, x := range v {
		d0 += r0[j] * x
		d1 += r1[j] * x
		d2 += r2[j] * x
		d3 += r3[j] * x
	}
	s0, s1, s2, s3 := d0*w[0], d1*w[1], d2*w[2], d3*w[3]
	if s0 == 0 || s1 == 0 || s2 == 0 || s3 == 0 {
		axpyNonzero(p, r0, s0)
		axpyNonzero(p, r1, s1)
		axpyNonzero(p, r2, s2)
		axpyNonzero(p, r3, s3)
		return
	}
	for j, o := range p {
		p[j] = o + r0[j]*s0 + r1[j]*s1 + r2[j]*s2 + r3[j]*s3
	}
}

// mmchainRows2x4 is the chain of two consecutive rows of X for four
// right-hand sides (v and p hold four consecutive length-d columns). The
// eight dots accumulate side by side, each in j-ascending order, and each
// cell of p then takes its two rows' terms in row order, each skipped when
// its scaled dot is zero; one pass over the two rows updates all four
// columns of p.
func mmchainRows2x4(r0, r1, v, p []float64, w0, w1 [4]float64) {
	d := len(r0)
	r1 = r1[:d]
	v0, v1, v2, v3 := v[:d], v[d:2*d], v[2*d:3*d], v[3*d:4*d]
	var d00, d01, d02, d03, d10, d11, d12, d13 float64
	for j, a := range r0 {
		x0, x1, x2, x3 := v0[j], v1[j], v2[j], v3[j]
		d00 += a * x0
		d01 += a * x1
		d02 += a * x2
		d03 += a * x3
		b := r1[j]
		d10 += b * x0
		d11 += b * x1
		d12 += b * x2
		d13 += b * x3
	}
	s00, s01, s02, s03 := d00*w0[0], d01*w0[1], d02*w0[2], d03*w0[3]
	s10, s11, s12, s13 := d10*w1[0], d11*w1[1], d12*w1[2], d13*w1[3]
	p0, p1, p2, p3 := p[:d], p[d:2*d], p[2*d:3*d], p[3*d:4*d]
	if s00 == 0 || s01 == 0 || s02 == 0 || s03 == 0 ||
		s10 == 0 || s11 == 0 || s12 == 0 || s13 == 0 {
		for c, s := range [4][2]float64{{s00, s10}, {s01, s11}, {s02, s12}, {s03, s13}} {
			axpyNonzero(p[c*d:(c+1)*d], r0, s[0])
			axpyNonzero(p[c*d:(c+1)*d], r1, s[1])
		}
		return
	}
	for j, a := range r0 {
		b := r1[j]
		p0[j] = p0[j] + a*s00 + b*s10
		p1[j] = p1[j] + a*s01 + b*s11
		p2[j] = p2[j] + a*s02 + b*s12
		p3[j] = p3[j] + a*s03 + b*s13
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

package matrix

// haveAVX2 reports whether this CPU runs AVX2 and the operating system
// saves the YMM registers across context switches.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID leaf 1 for AVX and OSXSAVE, XGETBV for the XMM
// and YMM state, and CPUID leaf 7 for AVX2. Written in assembly because the
// standard library's internal/cpu cannot be imported and the module takes
// no dependencies.
func cpuHasAVX2() bool

// The AVX2 kernels. Each vector lane is one output cell and runs exactly the
// operations of the Go kernel it replaces, in the same order: a product is
// VMULPD and then VADDPD, never a fused multiply-add, and a cell's terms
// keep their k- or row-ascending order. A zero skip tests one scalar that
// all lanes share, or, where each lane's own cell decides, adds -0 in the
// skipping lanes, which leaves every value (±0, ±Inf and NaN included) as
// it is. So the results are bit for bit the Go kernels'.

// matMulPairAVX2 sets o0[:p] and o1[:p] to the rows a0 and a1 (k cells
// each) times b (k x p): matMulBand's two-row tile, eight columns per sweep
// and then four, the last one to three under a lane mask, each cell
// k-ascending and skipping a zero cell of its row.
//
//go:noescape
func matMulPairAVX2(a0, a1, b, o0, o1 *float64, k, p int)

// tmmRows4AVX2 runs tmmRows4 for cnt output rows and one group of four
// rows: for i in [0, cnt) it adds a_q*b_q into o_i, where a_q is
// a[q*astride+i], b_q starts at b[q*bstride+i*bstep], and o_i starts at
// o[i*ostep] and has d-i*dstep cells.
//
//go:noescape
func tmmRows4AVX2(a *float64, astride int, b *float64, bstride, bstep int, o *float64, ostep, d, dstep, cnt int)

// tmatVecAVX2 runs tmatVecBand's four-row groups for rows [0, n4) of m,
// n4 a multiple of four: it adds t(m[0:n4, 0:cnt]) %*% y[0:n4] into
// o[0:cnt], where row r of m starts at m[r*k]. Each cell takes the four
// rows' terms in row order; the zero skip is per cell, so a lane adds -0,
// which leaves every value as it is, where its cell of m is zero.
//
//go:noescape
func tmatVecAVX2(o, m *float64, k int, y *float64, n4, cnt int)

// rowDotsAVX2 sets out[0:n8] to the dots of rows [0, n8) of m (k cells
// each, n8 a multiple of eight) with v[0:k], eight rows per sweep, each
// dot k-ascending from zero. With skip, a row's zero cell adds nothing, as
// in matVecBand; without, every term is added, as in mmchainRows4's dots.
// Lanes are rows, so a skipped term adds -0, which leaves every value as
// it is.
//
//go:noescape
func rowDotsAVX2(m *float64, k int, v *float64, out *float64, n8 int, skip bool)

// mmchainDots4x4AVX2 sets s[4q+c] to the dot of row q of x (four rows of d
// cells) with column c of v[,0:4], where row j of v starts at v[j*k]: the
// dots of mmchainRows2x4 for four rows, a row's four right-hand sides per
// vector, each j-ascending from zero.
//
//go:noescape
func mmchainDots4x4AVX2(x *float64, d int, v *float64, k int, s *[16]float64)

// colSumsAVX2 adds rows [0, n) of d (c cells each, n a multiple of four)
// into sum[0:c] as colSums does: four columns per vector, four rows per
// sweep, and per column s + v0 + v1 + v2 + v3 in that order.
//
//go:noescape
func colSumsAVX2(d *float64, c, n int, sum *float64)

// colMomentsAVX2 adds rows [0, n) of d (c cells each, n a multiple of four)
// into sum[0:c] and sq[0:c] as colMoments does: four columns per vector,
// four rows per sweep, and per column s + v0 + v1 + v2 + v3 and
// q + v0*v0 + v1*v1 + v2*v2 + v3*v3 in that order.
//
//go:noescape
func colMomentsAVX2(d *float64, c, n int, sum, sq *float64)

// colMinsAVX2 folds rows [0, n) of d (c cells each, n a multiple of four)
// into mn[0:c] as colMins does, each column comparing its cells in row
// order.
//
//go:noescape
func colMinsAVX2(d *float64, c, n int, mn *float64)

// colMaxsAVX2 folds rows [0, n) of d into mx[0:c] as colMaxs does.
//
//go:noescape
func colMaxsAVX2(d *float64, c, n int, mx *float64)

// minAVX2 returns the least non-NaN value of d[0:n], n a positive multiple
// of fullSweep, or +Inf if there is none. Its lanes merge by value, so
// where the least value is zero its sign is unspecified.
//
//go:noescape
func minAVX2(d *float64, n int) float64

// maxAVX2 returns the greatest non-NaN value of d[0:n] as minAVX2 does,
// or -Inf if there is none.
//
//go:noescape
func maxAVX2(d *float64, n int) float64

// sumAVX2 returns the sum of d[0:n] from +0 in data order: fullStats' sum
// chain, on a loop head whose alignment does not depend on the link.
//
//go:noescape
func sumAVX2(d *float64, n int) float64

// sumSqAVX2 returns the sum and the sum of squares of d[0:n] as fullStats'
// two chains do, on an aligned loop head.
//
//go:noescape
func sumSqAVX2(d *float64, n int) (sum, sq float64)

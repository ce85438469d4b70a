//go:build !amd64

package matrix

// haveAVX2 is false off amd64, where only the Go kernels exist.
const haveAVX2 = false

// The AVX2 kernels' declarations, so the shared code compiles; useAVX2 is
// never true here.

func matMulPairAVX2(a0, a1, b, o0, o1 *float64, k, p int) { panic("matrix: no AVX2 kernels") }

func tmmRows4AVX2(a *float64, astride int, b *float64, bstride, bstep int, o *float64, ostep, d, dstep, cnt int) {
	panic("matrix: no AVX2 kernels")
}

func mmchainDots4x4AVX2(x *float64, d int, v *float64, k int, s *[16]float64) {
	panic("matrix: no AVX2 kernels")
}

func tmatVecAVX2(o, m *float64, k int, y *float64, n4, cnt int) { panic("matrix: no AVX2 kernels") }

func rowDotsAVX2(m *float64, k int, v *float64, out *float64, n8 int, skip bool) {
	panic("matrix: no AVX2 kernels")
}

func colSumsAVX2(d *float64, c, n int, sum *float64) { panic("matrix: no AVX2 kernels") }

func colMomentsAVX2(d *float64, c, n int, sum, sq *float64) { panic("matrix: no AVX2 kernels") }

func colMinsAVX2(d *float64, c, n int, mn *float64) { panic("matrix: no AVX2 kernels") }

func colMaxsAVX2(d *float64, c, n int, mx *float64) { panic("matrix: no AVX2 kernels") }

func minAVX2(d *float64, n int) float64 { panic("matrix: no AVX2 kernels") }

func maxAVX2(d *float64, n int) float64 { panic("matrix: no AVX2 kernels") }

func sumAVX2(d *float64, n int) float64 { panic("matrix: no AVX2 kernels") }

func sumSqAVX2(d *float64, n int) (sum, sq float64) { panic("matrix: no AVX2 kernels") }

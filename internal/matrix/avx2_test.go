package matrix

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestCPUIDMatchesCPUInfo: the assembly CPUID probe agrees with the avx2
// flag the kernel reports in /proc/cpuinfo, where that file has a flags
// line.
func TestCPUIDMatchesCPUInfo(t *testing.T) {
	t.Parallel()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := strings.Contains(flags+" ", " avx2 ")
		if haveAVX2 != want {
			t.Fatalf("CPUID says AVX2 %v, /proc/cpuinfo says %v", haveAVX2, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// checkProductKernels computes every product that has an AVX2 kernel —
// MatMul, TMatMul, TSMM and MMChain with and without weights — on the Go
// kernels and on the assembly kernels and compares them cell by cell. The
// cells must be bitwise equal, except that any NaN matches any NaN: which
// payload a NaN carries after two NaNs meet follows the operand order the
// Go compiler picks for a commutative add or multiply.
func checkProductKernels(a, b, c, v, w *Dense) error {
	defer func() { useAVX2 = haveAVX2 }()
	products := []struct {
		name string
		f    func() *Dense
	}{
		{"MatMul", func() *Dense { return a.MatMul(b) }},
		{"TMatMul", func() *Dense { return a.TMatMul(c) }},
		{"TSMM", func() *Dense { return a.TSMM() }},
		{"MMChain", func() *Dense { return a.MMChain(v, nil) }},
		{"weighted MMChain", func() *Dense { return a.MMChain(v, w) }},
	}
	for _, p := range products {
		useAVX2 = false
		want := p.f()
		useAVX2 = true
		got := p.f()
		for i, g := range got.data {
			e := want.data[i]
			if math.Float64bits(g) != math.Float64bits(e) && !(math.IsNaN(g) && math.IsNaN(e)) {
				return fmt.Errorf("%s: cell (%d,%d) is %v on AVX2, %v on Go", p.name, i/got.cols, i%got.cols, g, e)
			}
		}
	}
	return nil
}

// productOperands draws A (n x k), B (k x p), C (n x p), V (k x q) and
// W (n x q) from fuzzCells, so every operand carries NaN, ±Inf, ±0 and
// small integers.
func productOperands(n, k, p, q int, seed int64, pick []byte) (a, b, c, v, w *Dense) {
	return fuzzCells(n, k, seed, pick), fuzzCells(k, p, seed+1, nil), fuzzCells(n, p, seed+2, nil),
		fuzzCells(k, q, seed+3, nil), fuzzCells(n, q, seed+4, nil)
}

// FuzzProductKernels checks the AVX2 kernels against the Go kernels on
// 0-23 rows (whole and ragged groups of two, four and eight), 1-19 inner
// and 1-19 result columns (whole and ragged vectors of four and eight) and
// 1-9 right-hand sides of MMChain.
func FuzzProductKernels(f *testing.F) {
	f.Add(uint8(9), uint8(5), uint8(10), uint8(4), int64(1), []byte{3, 4, 0, 1})
	f.Add(uint8(4), uint8(1), uint8(4), uint8(1), int64(2), []byte{})
	f.Add(uint8(22), uint8(18), uint8(19), uint8(9), int64(3), []byte{3, 3, 3, 3, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, n, k, p, q uint8, seed int64, pick []byte) {
		if !haveAVX2 {
			t.Skip("no AVX2 on this CPU")
		}
		a, b, c, v, w := productOperands(int(n%24), 1+int(k%19), 1+int(p%19), 1+int(q%9), seed, pick)
		if err := checkProductKernels(a, b, c, v, w); err != nil {
			t.Fatalf("n=%d k=%d p=%d q=%d: %v", a.rows, a.cols, b.cols, v.cols, err)
		}
	})
}

// TestProductKernelsMatchGo runs the fuzz check over a grid of the shapes
// the fuzz target draws.
func TestProductKernelsMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	for _, n := range []int{0, 1, 4, 7, 9, 23} {
		for _, k := range []int{1, 4, 9, 19} {
			for _, p := range []int{1, 2, 4, 7, 8, 10, 19} {
				for _, q := range []int{1, 4, 5, 8} {
					a, b, c, v, w := productOperands(n, k, p, q, int64(n*1000+k*100+p*10+q), nil)
					if err := checkProductKernels(a, b, c, v, w); err != nil {
						t.Fatalf("n=%d k=%d p=%d q=%d: %v", n, k, p, q, err)
					}
				}
			}
		}
	}
}

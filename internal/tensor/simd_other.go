//go:build !amd64 || race

package tensor

// useAVX2 is false where no assembly kernels are built: on other
// architectures, and under the race detector, which cannot see the memory
// assembly reads and writes.
var useAVX2 = false

func mulAddRowAVX2(drow, arow, bd []float64, p int) { panic("tensor: no AVX2 kernels in this build") }

func gatherScaledAVX2(dst []float64, alpha float64, hd []float64, dim int, srcs []int32) {
	panic("tensor: no AVX2 kernels in this build")
}

func axpyAVX2(alpha float64, x, y []float64) { panic("tensor: no AVX2 kernels in this build") }

func mulATBRowAVX2(dst, a, b []float64, c int) { panic("tensor: no AVX2 kernels in this build") }

func mulABTRowAVX2(drow, arow, bt []float64, p int) { panic("tensor: no AVX2 kernels in this build") }

func mulAddColAVX2(dst, a, b []float64) { panic("tensor: no AVX2 kernels in this build") }

func gcnLayerAVX2(out, h, wself, b []float64, wrel []*Matrix, off, src []int32, rels []uint64, norm [][]float64, n, numRel, in, p int, agg []float64) {
	panic("tensor: no AVX2 kernels in this build")
}

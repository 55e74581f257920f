//go:build !race

package tensor

// useAVX2 selects the assembly row kernels. It is fixed at start-up from
// CPUID; tests reset it to run the scalar Go kernels on the same host.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE, XCR0 bits 1-2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// The kernels below are implemented in simd_amd64.s. Each handles only the
// full 4-element blocks of its rows (mulAddColAVX2: its full groups of 4
// rows); the wrappers in tensor.go check every slice length first and
// finish the 1-3 element tail in Go.

//go:noescape
func mulAddRowAVX2(drow, arow, bd []float64, p int)

//go:noescape
func gatherScaledAVX2(dst []float64, alpha float64, hd []float64, dim int, srcs []int32)

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func mulATBRowAVX2(dst, a, b []float64, c int)

//go:noescape
func mulABTRowAVX2(drow, arow, bt []float64, p int)

// mulAddColAVX2 computes dst[i] += a_i·b for the len(dst) rows (a multiple
// of 4) of a, whose rows are len(b) long: mulAddCol's groups of 4.
//
//go:noescape
func mulAddColAVX2(dst, a, b []float64)

// gcnLayerAVX2 computes the first len(b) columns (a multiple of 4) of every
// row of the layer GCNLayerInto describes, for n destinations.
//
//go:noescape
func gcnLayerAVX2(out, h, wself, b []float64, wrel []*Matrix, off, src []int32, rels []uint64, norm [][]float64, n, numRel, in, p int, agg []float64)

package kernel

import (
	"runtime"
	"testing"

	"pasnet/internal/rng"
)

// gemmCase is one randomized geometry of the cross-backend suite; sizes
// straddle the tileM/tileN panel boundaries (1×1 up to several panels).
type gemmCase struct {
	m, k, n int
}

func randGemmCases(r *rng.RNG, iters int) []gemmCase {
	cases := []gemmCase{
		{1, 1, 1},
		{tileM, 1, tileN},
		{tileM + 1, 2, tileN + 1},
		{2*tileM - 1, 17, 2*tileN - 1},
		{3 * tileM, 31, 3 * tileN},
	}
	for i := 0; i < iters; i++ {
		cases = append(cases, gemmCase{1 + r.Intn(3*tileM+2), 1 + r.Intn(40), 1 + r.Intn(3*tileN+2)})
	}
	return cases
}

// runVariants evaluates all four GEMM variants on the active path (naive or
// tiled). The transposed operands are materialized by the caller so both
// paths see identical inputs.
func runVariants[T Elem](dst map[string][]T, a, b, at, bt, accInit []T, m, k, n int) {
	MatMul(dst["matmul"], a, b, m, k, n)
	MatMulTransA(dst["transA"], at, b, k, m, n)
	MatMulTransB(dst["transB"], a, bt, m, k, n)
	copy(dst["transBAcc"], accInit)
	MatMulTransBAcc(dst["transBAcc"], a, bt, m, k, n)
}

func newVariantDst[T Elem](mn int) map[string][]T {
	return map[string][]T{
		"matmul":    make([]T, mn),
		"transA":    make([]T, mn),
		"transB":    make([]T, mn),
		"transBAcc": make([]T, mn),
	}
}

// TestGEMMVariantsCrossBackend is the naive ≡ tiled equivalence property:
// every GEMM variant, in both element domains, at worker counts 1, 4 and
// NumCPU, over randomized panel-straddling geometries. Ring results must
// agree exactly; float64 results must be bit-identical (==, not
// tolerance) — the per-element accumulation runs in ascending-k order on
// both paths, which is also what keeps results worker-count independent
// and the two 2PC parties in lockstep.
func TestGEMMVariantsCrossBackend(t *testing.T) {
	origNaive := SetNaive(false)
	defer SetNaive(origNaive)
	r := rng.New(46)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		prevW := SetWorkers(w)
		for _, c := range randGemmCases(r, 25) {
			m, k, n := c.m, c.k, c.n

			af := fillF64(r, m*k)
			bf := fillF64(r, k*n)
			atf := transposeF(af, m, k)
			btf := transposeF(bf, k, n)
			accF := fillF64(r, m*n)
			au := fillU64(r, m*k)
			bu := fillU64(r, k*n)
			atu := transposeU(au, m, k)
			btu := transposeU(bu, k, n)
			accU := fillU64(r, m*n)

			// Index 0 runs naive, index 1 tiled.
			var outF [2]map[string][]float64
			var outU [2]map[string][]uint64
			for path := range outF {
				SetNaive(path == 0)
				outF[path] = newVariantDst[float64](m * n)
				runVariants(outF[path], af, bf, atf, btf, accF, m, k, n)
				outU[path] = newVariantDst[uint64](m * n)
				runVariants(outU[path], au, bu, atu, btu, accU, m, k, n)
			}
			for variant, want := range outF[0] {
				got := outF[1][variant]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d m=%d k=%d n=%d: float64 %s on tiled not bit-identical at %d: %x vs %x",
							w, m, k, n, variant, i, got[i], want[i])
					}
				}
			}
			for variant, want := range outU[0] {
				got := outU[1][variant]
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d m=%d k=%d n=%d: ring %s on tiled mismatch at %d: %d vs %d",
							w, m, k, n, variant, i, got[i], want[i])
					}
				}
			}
		}
		SetWorkers(prevW)
	}
}

func transposeF(a []float64, rows, cols int) []float64 {
	at := make([]float64, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			at[j*rows+i] = a[i*cols+j]
		}
	}
	return at
}

func transposeU(a []uint64, rows, cols int) []uint64 {
	at := make([]uint64, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			at[j*rows+i] = a[i*cols+j]
		}
	}
	return at
}

// TestConvCrossBackend runs the conv forward and backward paths naive and
// tiled over the random geometry zoo: the im2col GEMM and the gradient
// GEMM variants must agree exactly in the ring and bit-identically in
// float64, at 1 worker and NumCPU.
func TestConvCrossBackend(t *testing.T) {
	origNaive := SetNaive(false)
	defer SetNaive(origNaive)
	r := rng.New(47)
	for _, w := range []int{1, runtime.NumCPU()} {
		prevW := SetWorkers(w)
		for _, s := range randShapes(r, 12) {
			x := fillF64(r, s.InLen())
			kf := fillF64(r, s.KLen())
			gy := fillF64(r, s.OutLen())
			xu := fillU64(r, s.InLen())
			ku := fillU64(r, s.KLen())
			gyu := fillU64(r, s.OutLen())

			type convOut struct {
				outF, dxF, dkF []float64
				outU, dxU, dkU []uint64
			}
			run := func(naive bool) convOut {
				SetNaive(naive)
				var o convOut
				o.outF = make([]float64, s.OutLen())
				Conv2D(o.outF, x, kf, s)
				o.dxF = make([]float64, s.InLen())
				o.dkF = make([]float64, s.KLen())
				Conv2DGrads(o.dxF, o.dkF, x, kf, gy, s)
				o.outU = make([]uint64, s.OutLen())
				Conv2D(o.outU, xu, ku, s)
				o.dxU = make([]uint64, s.InLen())
				o.dkU = make([]uint64, s.KLen())
				Conv2DGrads(o.dxU, o.dkU, xu, ku, gyu, s)
				return o
			}
			want := run(true)
			got := run(false)
			checkBitsF := func(name string, g, wv []float64) {
				for i := range wv {
					if g[i] != wv[i] {
						t.Fatalf("workers=%d shape %+v: float64 %s on tiled not bit-identical at %d", w, s, name, i)
					}
				}
			}
			checkU := func(name string, g, wv []uint64) {
				for i := range wv {
					if g[i] != wv[i] {
						t.Fatalf("workers=%d shape %+v: ring %s on tiled mismatch at %d", w, s, name, i)
					}
				}
			}
			checkBitsF("conv", got.outF, want.outF)
			checkBitsF("dx", got.dxF, want.dxF)
			checkBitsF("dk", got.dkF, want.dkF)
			checkU("conv", got.outU, want.outU)
			checkU("dx", got.dxU, want.dxU)
			checkU("dk", got.dkU, want.dkU)
		}
		SetWorkers(prevW)
	}
}

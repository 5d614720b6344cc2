package kernel

import "fmt"

// ConvShape captures the geometry of an NCHW convolution: input
// (N,InC,H,W), kernel (OutC,InC/Groups,KH,KW), symmetric stride/padding.
// Groups <= 1 is a dense convolution; InC == OutC == Groups is depthwise.
type ConvShape struct {
	N, InC, H, W int
	OutC, KH, KW int
	Stride, Pad  int
	Groups       int
}

// NormGroups normalizes a group count: 0 and 1 both mean dense.
func NormGroups(g int) int {
	if g <= 1 {
		return 1
	}
	return g
}

// NormGroups returns the shape's normalized group count.
func (s ConvShape) NormGroups() int { return NormGroups(s.Groups) }

// OutHW returns the output spatial size.
func (s ConvShape) OutHW() (int, int) {
	oh := (s.H+2*s.Pad-s.KH)/s.Stride + 1
	ow := (s.W+2*s.Pad-s.KW)/s.Stride + 1
	return oh, ow
}

// InLen, KLen and OutLen return flat element counts.
func (s ConvShape) InLen() int { return s.N * s.InC * s.H * s.W }
func (s ConvShape) KLen() int  { return s.OutC * (s.InC / s.NormGroups()) * s.KH * s.KW }
func (s ConvShape) OutLen() int {
	oh, ow := s.OutHW()
	return s.N * s.OutC * oh * ow
}

func (s ConvShape) check(out, x, k int) {
	if x != s.InLen() || k != s.KLen() || out != s.OutLen() {
		panic(fmt.Sprintf("kernel: conv buffers (out %d, x %d, k %d) do not match shape %+v", out, x, k, s))
	}
	g := s.NormGroups()
	if s.InC%g != 0 || s.OutC%g != 0 {
		panic(fmt.Sprintf("kernel: groups %d do not divide channels in shape %+v", g, s))
	}
}

// Conv2D computes out = conv(x, k) for the given shape via im2col + GEMM
// (or the naive reference loops when SetNaive is on). The lowering uses the
// (InC/G·KH·KW) × (OH·OW) column layout so each (batch, group) output block
// is one row-major GEMM with no transposes. Accumulation order per output
// element matches the naive loops, so float64 results are bit-identical
// and ring results are exactly equal.
func Conv2D[T Elem](out, x, k []T, s ConvShape) {
	s.check(len(out), len(x), len(k))
	if Naive() {
		Conv2DNaive(out, x, k, s)
		return
	}
	oh, ow := s.OutHW()
	ohw := oh * ow
	if ohw <= 0 {
		return
	}
	g := s.NormGroups()
	icg := s.InC / g
	ocg := s.OutC / g
	ckk := icg * s.KH * s.KW
	tasks := s.N * g
	w := Workers()
	if w > 1 && tasks >= 2*w {
		// Enough (batch, group) blocks to feed every worker: parallelize
		// across blocks, each with serial im2col + GEMM and its own scratch.
		parallelFor(tasks, 1, func(lo, hi int) {
			cols := make([]T, ckk*ohw)
			for t := lo; t < hi; t++ {
				b, gi := t/g, t%g
				im2colRows(cols, x, s, b, gi, 0, ckk)
				kmat := k[gi*ocg*ckk : (gi+1)*ocg*ckk]
				blk := out[(b*s.OutC+gi*ocg)*ohw : (b*s.OutC+(gi+1)*ocg)*ohw]
				tiledRows(blk, kmat, cols, ocg, ckk, ohw, 0, ocg)
			}
		})
		return
	}
	// Few blocks (the 2PC inference case is N=1, G=1): run blocks serially
	// and parallelize inside the im2col and the GEMM.
	cols := make([]T, ckk*ohw)
	colGrain := 1 + gemmFlopGrain/(ohw+1)
	for t := 0; t < tasks; t++ {
		b, gi := t/g, t%g
		parallelFor(ckk, colGrain, func(lo, hi int) {
			im2colRows(cols, x, s, b, gi, lo, hi)
		})
		kmat := k[gi*ocg*ckk : (gi+1)*ocg*ckk]
		blk := out[(b*s.OutC+gi*ocg)*ohw : (b*s.OutC+(gi+1)*ocg)*ohw]
		parallelFor(ocg, rowGrain(ckk*ohw), func(lo, hi int) {
			tiledRows(blk, kmat, cols, ocg, ckk, ohw, lo, hi)
		})
	}
}

// Conv2DNaive is the retained scalar reference: a direct 7-deep loop nest,
// kept for equivalence tests and as the SetNaive fallback.
func Conv2DNaive[T Elem](out, x, k []T, s ConvShape) {
	oh, ow := s.OutHW()
	g := s.NormGroups()
	icg := s.InC / g
	ocg := s.OutC / g
	oi := 0
	for b := 0; b < s.N; b++ {
		for oc := 0; oc < s.OutC; oc++ {
			group := oc / ocg
			kbase := oc * icg * s.KH * s.KW
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum T
					for cg := 0; cg < icg; cg++ {
						c := group*icg + cg
						xbase := (b*s.InC + c) * s.H * s.W
						kcbase := kbase + cg*s.KH*s.KW
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.Stride + ky - s.Pad
							if iy < 0 || iy >= s.H {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.Stride + kx - s.Pad
								if ix < 0 || ix >= s.W {
									continue
								}
								sum += x[xbase+iy*s.W+ix] * k[kcbase+ky*s.KW+kx]
							}
						}
					}
					out[oi] = sum
					oi++
				}
			}
		}
	}
}

// im2colRows fills column-matrix rows [r0, r1) for batch b, group gi. Row
// r corresponds to one (channel-in-group, ky, kx) tap; its ohw entries are
// the tap's value at every output position (zero where the tap falls in
// padding).
func im2colRows[T Elem](cols, x []T, s ConvShape, b, gi, r0, r1 int) {
	oh, ow := s.OutHW()
	ohw := oh * ow
	g := s.NormGroups()
	icg := s.InC / g
	kk := s.KH * s.KW
	for r := r0; r < r1; r++ {
		cg := r / kk
		rem := r % kk
		ky := rem / s.KW
		kx := rem % s.KW
		c := gi*icg + cg
		src := x[(b*s.InC+c)*s.H*s.W : (b*s.InC+c+1)*s.H*s.W]
		dst := cols[r*ohw : (r+1)*ohw]
		for oy := 0; oy < oh; oy++ {
			iy := oy*s.Stride + ky - s.Pad
			drow := dst[oy*ow : (oy+1)*ow]
			if iy < 0 || iy >= s.H {
				for j := range drow {
					drow[j] = 0
				}
				continue
			}
			srow := src[iy*s.W : (iy+1)*s.W]
			for ox := range drow {
				ix := ox*s.Stride + kx - s.Pad
				if ix >= 0 && ix < s.W {
					drow[ox] = srow[ix]
				} else {
					drow[ox] = 0
				}
			}
		}
	}
}

// col2imChans scatters column-matrix rows back into the input gradient for
// channels-in-group [c0, c1), accumulating overlapping taps. It is the
// adjoint of im2colRows; parallel callers split by channel, whose target
// regions are disjoint.
func col2imChans[T Elem](dx, cols []T, s ConvShape, b, gi, c0, c1 int) {
	oh, ow := s.OutHW()
	ohw := oh * ow
	g := s.NormGroups()
	icg := s.InC / g
	kk := s.KH * s.KW
	for cg := c0; cg < c1; cg++ {
		c := gi*icg + cg
		dst := dx[(b*s.InC+c)*s.H*s.W : (b*s.InC+c+1)*s.H*s.W]
		for t := 0; t < kk; t++ {
			ky := t / s.KW
			kx := t % s.KW
			src := cols[(cg*kk+t)*ohw : (cg*kk+t+1)*ohw]
			for oy := 0; oy < oh; oy++ {
				iy := oy*s.Stride + ky - s.Pad
				if iy < 0 || iy >= s.H {
					continue
				}
				srow := src[oy*ow : (oy+1)*ow]
				for ox, v := range srow {
					ix := ox*s.Stride + kx - s.Pad
					if ix >= 0 && ix < s.W {
						dst[iy*s.W+ix] += v
					}
				}
			}
		}
	}
}

// Conv2DGrads computes the input and kernel gradients of Conv2D: given the
// output gradient gy it fills dx (same layout as x) and dk (same layout as
// k). Both are overwritten. The identities
//
//	<conv(x,k), gy> == <x, dx> == <k, dk>
//
// hold exactly in both element domains (the convolution is bilinear), which
// is what the property tests check. Batch/group blocks run serially with
// parallel GEMMs inside, so dk accumulation across the batch stays
// deterministic.
func Conv2DGrads[T Elem](dx, dk, x, k, gy []T, s ConvShape) {
	s.check(len(gy), len(dx), len(dk))
	for i := range dx {
		dx[i] = 0
	}
	for i := range dk {
		dk[i] = 0
	}
	oh, ow := s.OutHW()
	ohw := oh * ow
	if ohw <= 0 {
		return
	}
	g := s.NormGroups()
	icg := s.InC / g
	ocg := s.OutC / g
	ckk := icg * s.KH * s.KW
	cols := make([]T, ckk*ohw)
	dcols := make([]T, ckk*ohw)
	colGrain := 1 + gemmFlopGrain/(ohw+1)
	// maybeParallel (not parallelFor) so SetNaive pins the whole backward
	// pass single-threaded; the seed's backward was already im2col-lowered,
	// so the serial lowered pass is the faithful baseline.
	for b := 0; b < s.N; b++ {
		for gi := 0; gi < g; gi++ {
			maybeParallel(ckk, colGrain, func(lo, hi int) {
				im2colRows(cols, x, s, b, gi, lo, hi)
			})
			kmat := k[gi*ocg*ckk : (gi+1)*ocg*ckk]
			dkg := dk[gi*ocg*ckk : (gi+1)*ocg*ckk]
			gmat := gy[(b*s.OutC+gi*ocg)*ohw : (b*s.OutC+(gi+1)*ocg)*ohw]
			// dk_g += gmat (ocg×ohw) @ colsᵀ (ohw×ckk)
			MatMulTransBAcc(dkg, gmat, cols, ocg, ohw, ckk)
			// dcols = kmatᵀ (ckk×ocg) @ gmat (ocg×ohw)
			MatMulTransA(dcols, kmat, gmat, ocg, ckk, ohw)
			maybeParallel(icg, 1+colGrain/(s.KH*s.KW+1), func(lo, hi int) {
				col2imChans(dx, dcols, s, b, gi, lo, hi)
			})
		}
	}
}

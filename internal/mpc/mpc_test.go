package mpc

import (
	"math"
	"sync"
	"testing"

	"pasnet/internal/fixed"
	"pasnet/internal/rng"
	"pasnet/internal/transport"
)

var testCodec = fixed.Default64()

// runBoth executes fn on two connected parties and fails the test on any
// error from either side.
func runBoth(t *testing.T, seed uint64, fn func(p *Party) error) {
	t.Helper()
	if err := RunProtocol(seed, testCodec, fn); err != nil {
		t.Fatal(err)
	}
}

// shareAndRun shares a float vector from party 0, runs op on the share,
// reveals the result on both parties, and checks it against want with the
// given tolerance.
func shareAndRun(t *testing.T, seed uint64, xs []float64, shape []int,
	op func(p *Party, x Share) (Share, error), want []float64, tol float64) {
	t.Helper()
	var mu sync.Mutex
	results := map[int][]float64{}
	runBoth(t, seed, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, shape...)
		if err != nil {
			return err
		}
		y, err := op(p, x)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(y)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.ID] = p.DecodeTensor(plain)
		mu.Unlock()
		return nil
	})
	for id, got := range results {
		if len(got) != len(want) {
			t.Fatalf("party %d: got %d values, want %d", id, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("party %d elem %d: got %v, want %v (tol %v)", id, i, got[i], want[i], tol)
			}
		}
	}
	if len(results) != 2 {
		t.Fatal("expected results from both parties")
	}
}

func TestShareRevealRoundTrip(t *testing.T) {
	xs := []float64{1.5, -2.25, 0, 3.75, -100.5}
	shareAndRun(t, 1, xs, []int{5},
		func(p *Party, x Share) (Share, error) { return x, nil },
		xs, 1e-3)
}

func TestShareInputFromParty1(t *testing.T) {
	xs := []float64{0.5, -0.5}
	runBoth(t, 2, func(p *Party) error {
		var enc []uint64
		if p.ID == 1 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(1, enc, 2)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(x)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range xs {
			if math.Abs(got[i]-xs[i]) > 1e-3 {
				t.Errorf("party %d: got %v want %v", p.ID, got, xs)
				break
			}
		}
		return nil
	})
}

func TestRevealTo(t *testing.T) {
	xs := []float64{7.5}
	runBoth(t, 3, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, 1)
		if err != nil {
			return err
		}
		plain, err := p.RevealTo(1, x)
		if err != nil {
			return err
		}
		if p.ID == 1 {
			if got := p.DecodeTensor(plain); math.Abs(got[0]-7.5) > 1e-3 {
				t.Errorf("RevealTo got %v", got)
			}
		} else if plain != nil {
			t.Error("party 0 must not learn the value")
		}
		return nil
	})
}

func TestAddSubLinear(t *testing.T) {
	xs := []float64{1, -2, 3}
	// ((x + x) - x) * 2.5 + 1 == 2.5x + 1, all-local ops.
	shareAndRun(t, 4, xs, []int{3},
		func(p *Party, x Share) (Share, error) {
			sum := p.Add(x, x)
			d := p.Sub(sum, x) // == x
			sc := p.ScalePublic(d, 2.5)
			return p.AddPublic(sc, []uint64{p.Codec.Encode(1), p.Codec.Encode(1), p.Codec.Encode(1)}), nil
		},
		[]float64{1*2.5 + 1, -2*2.5 + 1, 3*2.5 + 1}, 1e-2)
}

func TestMulHadamard(t *testing.T) {
	xs := []float64{1.5, -2, 0.25, -0.125, 8}
	ys := []float64{2, 3, -4, 8, 0.5}
	var mu sync.Mutex
	results := map[int][]float64{}
	runBoth(t, 5, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
		}
		if p.ID == 1 {
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, 5)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(1, encY, 5)
		if err != nil {
			return err
		}
		z, err := p.MulHadamard(x, y)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(z)
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.ID] = p.DecodeTensor(plain)
		mu.Unlock()
		return nil
	})
	for id, got := range results {
		for i := range xs {
			want := xs[i] * ys[i]
			if math.Abs(got[i]-want) > 1e-2 {
				t.Fatalf("party %d elem %d: %v want %v", id, i, got[i], want)
			}
		}
	}
}

func TestMulHadamardRandomProperty(t *testing.T) {
	r := rng.New(77)
	const n = 128
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 5
		ys[i] = r.Norm() * 5
	}
	runBoth(t, 6, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, n)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(0, encY, n)
		if err != nil {
			return err
		}
		z, err := p.MulHadamard(x, y)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(z)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range xs {
			if math.Abs(got[i]-xs[i]*ys[i]) > 0.05 {
				t.Errorf("elem %d: %v want %v", i, got[i], xs[i]*ys[i])
				return nil
			}
		}
		return nil
	})
}

func TestSquare(t *testing.T) {
	xs := []float64{0, 1, -1, 2.5, -3.5, 10}
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = v * v
	}
	shareAndRun(t, 7, xs, []int{len(xs)},
		func(p *Party, x Share) (Share, error) { return p.Square(x) },
		want, 0.05)
}

func TestMatMul(t *testing.T) {
	// x: 2x3, y: 3x2
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{0.5, -1, 2, 0.25, -0.5, 1}
	want := []float64{
		1*0.5 + 2*2 + 3*-0.5, 1*-1 + 2*0.25 + 3*1,
		4*0.5 + 5*2 + 6*-0.5, 4*-1 + 5*0.25 + 6*1,
	}
	runBoth(t, 8, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, 2, 3)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(0, encY, 3, 2)
		if err != nil {
			return err
		}
		z, err := p.MatMul(x, y)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(z)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("elem %d: %v want %v", i, got[i], want[i])
			}
		}
		return nil
	})
}

func TestDReLUCorrectness(t *testing.T) {
	// Adversarial values around zero and the ring boundary plus randoms.
	xs := []float64{0, 0.001, -0.001, 1, -1, 100.25, -100.25, 1e4, -1e4, 0.5, -0.5}
	r := rng.New(123)
	for i := 0; i < 64; i++ {
		xs = append(xs, r.Norm()*1000)
	}
	n := len(xs)
	runBoth(t, 9, func(p *Party) error {
		var enc []uint64
		if p.ID == 0 {
			enc = p.EncodeTensor(xs)
		}
		x, err := p.ShareInput(0, enc, n)
		if err != nil {
			return err
		}
		bits, err := p.DReLU(x)
		if err != nil {
			return err
		}
		// Reveal the XOR shares via a raw byte exchange.
		theirs, err := transport.ExchangeBytes(p.Conn, bits)
		if err != nil {
			return err
		}
		for i := range xs {
			got := bits[i] ^ theirs[i]
			want := byte(0)
			if xs[i] >= 0 {
				want = 1
			}
			if got != want {
				t.Errorf("party %d: drelu(%v) = %d, want %d", p.ID, xs[i], got, want)
				return nil
			}
		}
		return nil
	})
}

func TestReLU(t *testing.T) {
	xs := []float64{-3, -0.5, 0, 0.5, 3, -100, 100, 0.001, -0.001}
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = math.Max(v, 0)
	}
	shareAndRun(t, 10, xs, []int{len(xs)},
		func(p *Party, x Share) (Share, error) { return p.ReLU(x) },
		want, 1e-2)
}

func TestReLURandomProperty(t *testing.T) {
	r := rng.New(31)
	const n = 200
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 50
	}
	want := make([]float64, n)
	for i, v := range xs {
		want[i] = math.Max(v, 0)
	}
	shareAndRun(t, 11, xs, []int{n},
		func(p *Party, x Share) (Share, error) { return p.ReLU(x) },
		want, 1e-2)
}

func TestMaxPool(t *testing.T) {
	// 1x1x4x4 image, 2x2/2 pooling.
	xs := []float64{
		1, -2, 3, 4,
		5, 6, -7, 8,
		-9, 10, 11, 12,
		13, 14, -15, 16,
	}
	want := []float64{6, 8, 14, 16}
	shareAndRun(t, 12, xs, []int{1, 1, 4, 4},
		func(p *Party, x Share) (Share, error) { return p.MaxPool2D(x, 2, 2, 2) },
		want, 1e-2)
}

func TestMaxPool3x3(t *testing.T) {
	// Odd window exercises the tournament's carry path.
	r := rng.New(55)
	xs := make([]float64, 2*6*6)
	for i := range xs {
		xs[i] = r.Norm() * 10
	}
	// Plaintext reference.
	want := make([]float64, 0, 2*2*2)
	for c := 0; c < 2; c++ {
		for oy := 0; oy < 2; oy++ {
			for ox := 0; ox < 2; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						v := xs[c*36+(oy*3+ky)*6+ox*3+kx]
						if v > best {
							best = v
						}
					}
				}
				want = append(want, best)
			}
		}
	}
	shareAndRun(t, 13, xs, []int{1, 2, 6, 6},
		func(p *Party, x Share) (Share, error) { return p.MaxPool2D(x, 3, 3, 3) },
		want, 1e-2)
}

func TestAvgPool(t *testing.T) {
	xs := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	want := []float64{3.5, 5.5, 11.5, 13.5}
	shareAndRun(t, 14, xs, []int{1, 1, 4, 4},
		func(p *Party, x Share) (Share, error) { return p.AvgPool2D(x, 2, 2, 2) },
		want, 1e-2)
}

func TestGlobalAvgPool(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	want := []float64{2.5, 25}
	shareAndRun(t, 15, xs, []int{1, 2, 2, 2},
		func(p *Party, x Share) (Share, error) { return p.GlobalAvgPool2D(x) },
		want, 1e-2)
}

func TestX2Act(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 0.5}
	prm := X2ActParams{W1: 0.25, W2: 1, B: 0.1, Scale: 0.8}
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = prm.Scale * (prm.W1*v*v + prm.W2*v + prm.B)
	}
	shareAndRun(t, 16, xs, []int{len(xs)},
		func(p *Party, x Share) (Share, error) { return p.X2Act(x, prm) },
		want, 0.05)
}

func TestConv2D(t *testing.T) {
	r := rng.New(71)
	dims := ConvDims{N: 1, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	xs := make([]float64, dims.InLen())
	ws := make([]float64, dims.KLen())
	for i := range xs {
		xs[i] = r.Norm()
	}
	for i := range ws {
		ws[i] = r.Norm() * 0.5
	}
	// Plaintext reference conv.
	want := plainConvRef(xs, ws, dims)
	runBoth(t, 17, func(p *Party) error {
		var encX, encW []uint64
		if p.ID == 1 {
			encX = p.EncodeTensor(xs)
		}
		if p.ID == 0 {
			encW = p.EncodeTensor(ws)
		}
		x, err := p.ShareInput(1, encX, dims.N, dims.InC, dims.H, dims.W)
		if err != nil {
			return err
		}
		w, err := p.ShareInput(0, encW, dims.OutC, dims.InC, dims.KH, dims.KW)
		if err != nil {
			return err
		}
		y, err := p.Conv2D(x, w, dims)
		if err != nil {
			return err
		}
		plain, err := p.Reveal(y)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(plain)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.05 {
				t.Errorf("conv elem %d: %v want %v", i, got[i], want[i])
				return nil
			}
		}
		return nil
	})
}

// plainConvRef is a float reference convolution for test comparison.
func plainConvRef(x, k []float64, d ConvDims) []float64 {
	oh, ow := d.OutHW()
	out := make([]float64, d.N*d.OutC*oh*ow)
	oi := 0
	for b := 0; b < d.N; b++ {
		for oc := 0; oc < d.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					for ic := 0; ic < d.InC; ic++ {
						for ky := 0; ky < d.KH; ky++ {
							iy := oy*d.Stride + ky - d.Pad
							if iy < 0 || iy >= d.H {
								continue
							}
							for kx := 0; kx < d.KW; kx++ {
								ix := ox*d.Stride + kx - d.Pad
								if ix < 0 || ix >= d.W {
									continue
								}
								sum += x[(b*d.InC+ic)*d.H*d.W+iy*d.W+ix] * k[((oc*d.InC+ic)*d.KH+ky)*d.KW+kx]
							}
						}
					}
					out[oi] = sum
					oi++
				}
			}
		}
	}
	return out
}

func TestBitAndTruthTable(t *testing.T) {
	// All four (a,b) combinations, each XOR-shared both ways.
	plainA := []byte{0, 0, 1, 1, 0, 0, 1, 1}
	plainB := []byte{0, 1, 0, 1, 0, 1, 0, 1}
	runBoth(t, 18, func(p *Party) error {
		// Derive deterministic XOR shares: party 0 holds the plain bit for
		// the first half, zero for the second, so both assignments occur.
		n := len(plainA)
		a := make(BitShare, n)
		b := make(BitShare, n)
		for i := 0; i < n; i++ {
			if i < n/2 {
				if p.ID == 0 {
					a[i], b[i] = plainA[i], plainB[i]
				}
			} else {
				if p.ID == 1 {
					a[i], b[i] = plainA[i], plainB[i]
				}
			}
		}
		c, err := p.bitAnd(a, b)
		if err != nil {
			return err
		}
		theirs, err := transport.ExchangeBytes(p.Conn, c)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if got := c[i] ^ theirs[i]; got != plainA[i]&plainB[i] {
				t.Errorf("AND(%d,%d) = %d", plainA[i], plainB[i], got)
			}
		}
		return nil
	})
}

func TestB2A(t *testing.T) {
	plain := []byte{0, 1, 1, 0, 1}
	runBoth(t, 19, func(p *Party) error {
		bits := make(BitShare, len(plain))
		// Share: party 0 holds plain ^ 1-mask, party 1 holds the mask.
		for i, b := range plain {
			mask := byte(i) & 1
			if p.ID == 0 {
				bits[i] = b ^ mask
			} else {
				bits[i] = mask
			}
		}
		ar, err := p.B2A(bits, len(plain))
		if err != nil {
			return err
		}
		vals, err := p.Reveal(ar)
		if err != nil {
			return err
		}
		for i, b := range plain {
			if vals[i] != uint64(b) {
				t.Errorf("B2A bit %d: got %d want %d", i, vals[i], b)
			}
		}
		return nil
	})
}

func TestCompareGE(t *testing.T) {
	xs := []float64{1, 2, 3, -4}
	ys := []float64{1, 5, -3, -4}
	runBoth(t, 20, func(p *Party) error {
		var encX, encY []uint64
		if p.ID == 0 {
			encX = p.EncodeTensor(xs)
			encY = p.EncodeTensor(ys)
		}
		x, err := p.ShareInput(0, encX, 4)
		if err != nil {
			return err
		}
		y, err := p.ShareInput(0, encY, 4)
		if err != nil {
			return err
		}
		bits, err := p.Compare(x, y)
		if err != nil {
			return err
		}
		theirs, err := transport.ExchangeBytes(p.Conn, bits)
		if err != nil {
			return err
		}
		want := []byte{1, 0, 1, 1}
		for i := range want {
			if got := bits[i] ^ theirs[i]; got != want[i] {
				t.Errorf("compare %v >= %v: got %d want %d", xs[i], ys[i], got, want[i])
			}
		}
		return nil
	})
}

func TestTruncationErrorBound(t *testing.T) {
	// Property: local truncation of a fixed-point product introduces at
	// most ~1 ULP of error for values away from the ring boundary.
	r := rng.New(91)
	const n = 256
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm() * 100
	}
	shareAndRun(t, 21, xs, []int{n},
		func(p *Party, x Share) (Share, error) {
			return p.ScalePublic(x, 1.0), nil // multiply by one, trunc once
		},
		xs, 3.0/testCodec.Scale())
}

// take is Dealer.Take for demands that cannot fail.
func take(t *testing.T, d *Dealer, dem Demand) Correlation {
	t.Helper()
	c, err := d.Take(dem)
	if err != nil {
		t.Fatalf("take %s: %v", dem, err)
	}
	return c
}

func TestDealerDeterminism(t *testing.T) {
	d0 := NewDealer(42, 0)
	d1 := NewDealer(42, 1)
	h := Demand{Kind: KindHadamard, N: 16}
	h0, h1 := take(t, d0, h), take(t, d1, h)
	for i := 0; i < 16; i++ {
		a := h0.A[i] + h1.A[i]
		b := h0.B[i] + h1.B[i]
		z := h0.Z[i] + h1.Z[i]
		if z != a*b {
			t.Fatalf("triple %d: z=%d a*b=%d", i, z, a*b)
		}
	}
	// Square pairs.
	sq := Demand{Kind: KindSquare, N: 8}
	s0, s1 := take(t, d0, sq), take(t, d1, sq)
	for i := 0; i < 8; i++ {
		a := s0.A[i] + s1.A[i]
		if s0.Z[i]+s1.Z[i] != a*a {
			t.Fatalf("square pair %d inconsistent", i)
		}
	}
	// Bit triples.
	bt := Demand{Kind: KindBits, N: 32}
	b0, b1 := take(t, d0, bt), take(t, d1, bt)
	for i := 0; i < 32; i++ {
		a := b0.BA[i] ^ b1.BA[i]
		b := b0.BB[i] ^ b1.BB[i]
		if b0.BC[i]^b1.BC[i] != a&b {
			t.Fatalf("bit triple %d inconsistent", i)
		}
	}
}

func TestDealerMatMulConvTriples(t *testing.T) {
	d0 := NewDealer(7, 0)
	d1 := NewDealer(7, 1)
	m, k, n := 3, 4, 2
	mm := Demand{Kind: KindMatMul, M: m, K: k, P: n}
	m0, m1 := take(t, d0, mm), take(t, d1, mm)
	a := CombineShares(m0.A, m1.A)
	b := CombineShares(m0.B, m1.B)
	z := CombineShares(m0.Z, m1.Z)
	want := make([]uint64, m*n)
	ringMatMul(want, a, b, m, k, n)
	for i := range want {
		if z[i] != want[i] {
			t.Fatalf("matmul triple elem %d", i)
		}
	}
	dims := ConvDims{N: 1, InC: 2, H: 4, W: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cv := Demand{Kind: KindConv, Conv: dims}
	c0, c1 := take(t, d0, cv), take(t, d1, cv)
	ca := CombineShares(c0.A, c1.A)
	cb := CombineShares(c0.B, c1.B)
	cz := CombineShares(c0.Z, c1.Z)
	cwant := make([]uint64, dims.OutLen())
	ringConv2D(cwant, ca, cb, dims)
	for i := range cwant {
		if cz[i] != cwant[i] {
			t.Fatalf("conv triple elem %d", i)
		}
	}
}

func TestSplitCombine(t *testing.T) {
	r := rng.New(5)
	secret := make([]uint64, 64)
	r.FillUint64(secret)
	s0, s1 := SplitSecret(secret, r)
	got := CombineShares(s0, s1)
	for i := range secret {
		if got[i] != secret[i] {
			t.Fatal("split/combine mismatch")
		}
	}
}

func TestShareReshape(t *testing.T) {
	s := NewShare(2, 3)
	v := s.Reshape(6)
	if len(v.Shape) != 1 || v.Shape[0] != 6 {
		t.Fatal("reshape shape wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape must panic")
		}
	}()
	s.Reshape(5)
}

func TestAddBias(t *testing.T) {
	xs := []float64{1, 1, 2, 2} // 1x2x1x2
	shareAndRun(t, 22, xs, []int{1, 2, 1, 2},
		func(p *Party, x Share) (Share, error) { return p.AddBias(x, []float64{0.5, -0.5}) },
		[]float64{1.5, 1.5, 1.5, 1.5}, 1e-2)
}

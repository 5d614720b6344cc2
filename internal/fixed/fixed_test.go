package fixed

import (
	"math"
	"testing"
	"testing/quick"

	"pasnet/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := Default64()
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, 3.14159, -271.828, 1e4, -1e4, 1e9, -1e9} {
		got := c.Decode(c.Encode(v))
		if math.Abs(got-v) > 1/c.Scale() {
			t.Errorf("round trip %v -> %v, err %v", v, got, got-v)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	c := Default64()
	if err := quick.Check(func(raw int64) bool {
		v := float64(raw>>24) / (1 << 16) // covers about ±2^23
		got := c.Decode(c.Encode(v))
		return math.Abs(got-v) <= 1/c.Scale()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdditionHomomorphism(t *testing.T) {
	c := Default64()
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		a := r.Norm() * 100
		b := r.Norm() * 100
		got := c.Decode(c.Encode(a) + c.Encode(b))
		if math.Abs(got-(a+b)) > 2/c.Scale() {
			t.Fatalf("add homomorphism broken: %v + %v -> %v", a, b, got)
		}
	}
}

func TestMulTrunc(t *testing.T) {
	c := Default64()
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		a := r.Norm() * 10
		b := r.Norm() * 10
		got := c.Decode(c.MulTrunc(c.Encode(a), c.Encode(b)))
		want := a * b
		tol := (math.Abs(a)+math.Abs(b)+2)/c.Scale() + 1/c.Scale()
		if math.Abs(got-want) > tol {
			t.Fatalf("MulTrunc(%v, %v) = %v, want %v (tol %v)", a, b, got, want, tol)
		}
	}
}

func TestTruncateMatchesArithShift(t *testing.T) {
	c := NewCodec64(8)
	if err := quick.Check(func(x uint64) bool {
		return c.Truncate(x) == uint64(int64(x)>>8)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignHelpers(t *testing.T) {
	if !IsNeg64(1<<63) || IsNeg64(1<<63-1) {
		t.Error("IsNeg64 boundary wrong")
	}
	if MSB64(1<<63) != 1 || MSB64(1<<63-1) != 0 {
		t.Error("MSB64 wrong")
	}
	if Low63(math.MaxUint64) != 1<<63-1 {
		t.Error("Low63 wrong")
	}
	if c := Default64(); c.Decode(-c.Encode(5)) != -5 {
		t.Error("ring negation does not decode to the negated value")
	}
}

func TestNewCodecBounds(t *testing.T) {
	for _, f := range []uint{0, 57, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCodec64(%d) should panic", f)
				}
			}()
			NewCodec64(f)
		}()
	}
	if c := NewCodec64(16); c.Scale() != 65536 {
		t.Error("NewCodec64(16) scale wrong")
	}
}

func TestSliceCodecs(t *testing.T) {
	c := Default64()
	vs := []float64{1.5, -2.25, 0, 100}
	enc := c.EncodeSlice(vs, nil)
	dec := c.DecodeSlice(enc, nil)
	for i := range vs {
		if math.Abs(dec[i]-vs[i]) > 1/c.Scale() {
			t.Errorf("slice round trip index %d: %v -> %v", i, vs[i], dec[i])
		}
	}
	// In-place variants with preallocated destinations.
	enc2 := make([]uint64, len(vs))
	if got := c.EncodeSlice(vs, enc2); &got[0] != &enc2[0] {
		t.Error("EncodeSlice did not reuse destination")
	}
	dec2 := make([]float64, len(vs))
	if got := c.DecodeSlice(enc, dec2); &got[0] != &dec2[0] {
		t.Error("DecodeSlice did not reuse destination")
	}
}

package corr

import (
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Suite for the fixed weight-mask correlation kinds: store replay must
// stay byte-identical to the live dealer, z must really be the product
// against the out-of-band derived mask b (even when the store's stream
// seed differs from the pair's dealer seed), the format-version gate must
// reject stores from the other version in both directions, and the mask
// slot must survive validation on the generate and decode paths.

// fixedConvDims is the conv geometry used throughout this file.
var fixedConvDims = mpc.ConvDims{N: 1, InC: 2, H: 5, W: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}

// fixedTestTape is two flushes of a mixed program: the fixed kinds reuse
// their mask slots across flushes (the whole point of the scheme) while
// the ordinary kinds draw fresh material.
func fixedTestTape() Tape {
	flush := Tape{
		{Kind: mpc.KindConvFixedB, Mask: 0, Conv: fixedConvDims},
		{Kind: mpc.KindBits, N: 64},
		{Kind: mpc.KindMatMulFixedB, Mask: 1, M: 2, K: 12, P: 4},
		{Kind: mpc.KindHadamard, N: 9},
		{Kind: mpc.KindSquare, N: 5},
	}
	return flush.Repeat(2)
}

// TestStoreFixedBMatchesLiveDealerStream pins byte-identical replay for
// both parties across two flushes of fixed-mask demands.
func TestStoreFixedBMatchesLiveDealerStream(t *testing.T) {
	tape := fixedTestTape()
	for party := 0; party < 2; party++ {
		s, err := BuildSeeded(tape, party, 4242)
		if err != nil {
			t.Fatal(err)
		}
		drainAgainstDealer(t, s, 4242, tape)
	}
}

// TestFixedBProductAgainstDerivedMask reconstructs the pair's plain (a, z)
// and checks z really is the product against the mask b derived from the
// *dealer* seed — with the store's randomness stream seeded differently,
// exactly the per-geometry-stream shape pi.WriteStorePair uses. A fresh a
// per flush, one b for the whole session.
func TestFixedBProductAgainstDerivedMask(t *testing.T) {
	const dealerSeed, streamSeed = 88, 991133
	tape := fixedTestTape()
	s0, s1, err := BuildPair(tape, rng.New(streamSeed), dealerSeed)
	if err != nil {
		t.Fatal(err)
	}
	recon := func(h0, h1 []uint64) []uint64 {
		out := make([]uint64, len(h0))
		for i := range out {
			out[i] = h0[i] + h1[i]
		}
		return out
	}
	// b as the pair's live dealers hold it: the sum of their halves.
	fixedB := func(mask, n int) []uint64 {
		var halves [2][]uint64
		for party := range halves {
			h, err := mpc.NewDealer(dealerSeed, party).FixedMaskHalf(mask, n)
			if err != nil {
				t.Fatal(err)
			}
			halves[party] = h
		}
		return recon(halves[0], halves[1])
	}
	var flushA [][]uint64
	for f := 0; f < 2; f++ {
		for _, dem := range tape[:len(tape)/2] {
			c0, err := s0.Take(dem)
			if err != nil {
				t.Fatal(err)
			}
			c1, err := s1.Take(dem)
			if err != nil {
				t.Fatal(err)
			}
			a, z := recon(c0.A, c1.A), recon(c0.Z, c1.Z)
			switch dem.Kind {
			case mpc.KindMatMulFixedB:
				b := fixedB(dem.Mask, dem.K*dem.P)
				want := make([]uint64, dem.M*dem.P)
				kernel.MatMul(want, a, b, dem.M, dem.K, dem.P)
				eqWords(t, "fixedb matmul z=a@b", z, want)
				flushA = append(flushA, a)
			case mpc.KindConvFixedB:
				c := dem.Conv
				b := fixedB(dem.Mask, c.KLen())
				want := make([]uint64, c.OutLen())
				kernel.Conv2D(want, a, b, kernel.ConvShape{
					N: c.N, InC: c.InC, H: c.H, W: c.W, OutC: c.OutC, KH: c.KH, KW: c.KW,
					Stride: c.Stride, Pad: c.Pad, Groups: c.Groups,
				})
				eqWords(t, "fixedb conv z=conv(a,b)", z, want)
				flushA = append(flushA, a)
			}
		}
	}
	// The activation masks must be fresh per flush — reusing them would
	// leak x−x' — so the two flushes' a vectors must differ.
	half := len(flushA) / 2
	for i := 0; i < half; i++ {
		same := true
		for j := range flushA[i] {
			if flushA[i][j] != flushA[i+half][j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("fixed demand %d: activation mask a repeated across flushes", i)
		}
	}
}

// TestFixedBFileRoundTrip pins the serialized form of the new kinds:
// write → read → replay must be lossless, including the mask slot dims.
func TestFixedBFileRoundTrip(t *testing.T) {
	tape := fixedTestTape()
	s, err := BuildSeeded(tape, 1, 555)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Tape().Equal(tape) {
		t.Fatal("fixed-kind tape not preserved through encode/decode")
	}
	drainAgainstDealer(t, loaded, 555, tape)
}

// TestStoreVersionGate is the corruption-matrix satellite's
// version-mismatch half. The CRC trailer covers the body but not the
// magic, so rewriting the magic yields exactly what the other binary
// version would produce/consume — both directions must fail with the
// regeneration hint, not a misparse:
//   - new binary × old store: "PASCORR1" (no fixed-mask kinds) and
//     "PASCORR2" (byte-per-bit triples, no random-OT kind) files decoded
//     here;
//   - old binary × new store: earlier decoders compared the magic by
//     strict equality too, so the bump to "PASCORR3" (pinned below) makes
//     them reject our files the same way; a future "PASCORR4" is rejected
//     here alike.
func TestStoreVersionGate(t *testing.T) {
	if storeMagic != "PASCORR3" {
		t.Fatalf("storeMagic = %q; packed bits and the random-OT kind shipped as PASCORR3 — bumping again needs a new version-gate test", storeMagic)
	}
	s, err := BuildSeeded(testTape(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Encode()
	for _, other := range []string{"PASCORR1", "PASCORR2", "PASCORR4"} {
		old := append([]byte(nil), good...)
		copy(old, other)
		_, err := Decode(old)
		if err == nil {
			t.Fatalf("version %s store must not decode", other)
		}
		if !strings.Contains(err.Error(), other) || !strings.Contains(err.Error(), storeMagic) ||
			!strings.Contains(err.Error(), "regenerate") {
			t.Fatalf("version error must name both versions and the fix, got: %v", err)
		}
	}
	// An unrelated magic is garbage, not another version.
	junk := append([]byte(nil), good...)
	copy(junk, "NOTCORR9")
	if _, err := Decode(junk); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("foreign magic: %v", err)
	}
}

// TestDecodeRejectsUnknownKind is the matrix's other axis: a store whose
// entry table names a correlation kind this binary does not know (however
// it got there — a future format, a miswritten file) fails with the
// kind in the error, not a misparse. The CRC is resealed so the test
// reaches the structural validator.
func TestDecodeRejectsUnknownKind(t *testing.T) {
	s, err := BuildSeeded(Tape{{Kind: mpc.KindHadamard, N: 4}}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	kindOff := len(storeMagic) + 1 + 4 + 4 // first entry's kind byte
	enc[kindOff] = 0xee
	reseal(enc)
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "unknown correlation kind 238") {
		t.Fatalf("unknown kind must be rejected by name, got: %v", err)
	}
}

// TestFixedBMaskValidation covers the mask-slot validators on every path:
// build-time tape validation, slot re-pinning, and the decoder behind a
// valid checksum.
func TestFixedBMaskValidation(t *testing.T) {
	t.Run("plain-kind-with-mask", func(t *testing.T) {
		_, err := BuildSeeded(Tape{{Kind: mpc.KindHadamard, N: 4, Mask: 2}}, 0, 1)
		if err == nil || !strings.Contains(err.Error(), "carries fixed mask slot") {
			t.Fatalf("plain kind with a mask slot must fail, got: %v", err)
		}
	})
	t.Run("slot-out-of-range", func(t *testing.T) {
		for _, mask := range []int{-1, mpc.MaxFixedMask + 1} {
			_, err := BuildSeeded(Tape{{Kind: mpc.KindMatMulFixedB, Mask: mask, M: 1, K: 2, P: 2}}, 0, 1)
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("mask %d must fail, got: %v", mask, err)
			}
		}
	})
	t.Run("slot-repinned", func(t *testing.T) {
		// One slot masking two different weight lengths is a protocol bug:
		// the generator must refuse, like the live dealer does.
		tape := Tape{
			{Kind: mpc.KindMatMulFixedB, Mask: 3, M: 1, K: 2, P: 2},
			{Kind: mpc.KindMatMulFixedB, Mask: 3, M: 1, K: 2, P: 3},
		}
		_, err := BuildSeeded(tape, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "pinned to length") {
			t.Fatalf("re-pinned slot must fail, got: %v", err)
		}
	})
	t.Run("decoded-slot-out-of-range", func(t *testing.T) {
		s, err := BuildSeeded(Tape{{Kind: mpc.KindMatMulFixedB, Mask: 1, M: 1, K: 2, P: 2}}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		enc := s.Encode()
		maskOff := len(storeMagic) + 1 + 4 + 4 + 1 // first entry's mask u32
		enc[maskOff+3] = 0x7f                      // ~2^31: far past MaxFixedMask
		reseal(enc)
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("hostile mask slot must be rejected, got: %v", err)
		}
	})
	t.Run("take-mask-mismatch", func(t *testing.T) {
		s, err := BuildSeeded(Tape{{Kind: mpc.KindMatMulFixedB, Mask: 1, M: 1, K: 2, P: 2}}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Take(mpc.Demand{Kind: mpc.KindMatMulFixedB, Mask: 2, M: 1, K: 2, P: 2})
		if err == nil || !strings.Contains(err.Error(), "mask=1") || !strings.Contains(err.Error(), "mask=2") {
			t.Fatalf("mask-slot mismatch must name both slots, got: %v", err)
		}
	})
}

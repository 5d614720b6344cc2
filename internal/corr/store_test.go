package corr

import (
	"fmt"
	"strings"
	"testing"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// testTape exercises every correlation kind with mixed geometries,
// including a grouped (depthwise) convolution and bit/OT batches whose
// sizes leave padding in the packed on-disk layout.
func testTape() Tape {
	return Tape{
		{Kind: mpc.KindConv, Conv: mpc.ConvDims{N: 2, InC: 3, H: 6, W: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{Kind: mpc.KindBits, N: 192},
		{Kind: mpc.KindHadamard, N: 96},
		{Kind: mpc.KindSquare, N: 50},
		{Kind: mpc.KindMatMul, M: 4, K: 9, P: 5},
		{Kind: mpc.KindConv, Conv: mpc.ConvDims{N: 1, InC: 4, H: 5, W: 5, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4}},
		{Kind: mpc.KindHadamard, N: 7},
		{Kind: mpc.KindOT, N: 33},
		{Kind: mpc.KindBits, N: 13},
	}
}

func eqWords(t *testing.T, name string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d differs: %x vs %x", name, i, got[i], want[i])
		}
	}
}

func eqBits(t *testing.T, name string, got, want mpc.BitShare) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bit %d differs", name, i)
		}
	}
}

// eqCorr compares every field of two correlations.
func eqCorr(t *testing.T, where string, got, want mpc.Correlation) {
	t.Helper()
	eqWords(t, where+" a", got.A, want.A)
	eqWords(t, where+" b", got.B, want.B)
	eqWords(t, where+" z", got.Z, want.Z)
	eqBits(t, where+" ba", got.BA, want.BA)
	eqBits(t, where+" bb", got.BB, want.BB)
	eqBits(t, where+" bc", got.BC, want.BC)
	eqBits(t, where+" ot", got.OT, want.OT)
}

// drainAgainstDealer consumes the store in tape order and compares every
// correlation byte-for-byte against a live dealer on the same seed — the
// stream-replication invariant that makes store-fed online phases
// bit-identical to the live-dealer path.
func drainAgainstDealer(t *testing.T, s *Store, seed uint64, tape Tape) {
	t.Helper()
	d := mpc.NewDealer(seed, s.Party())
	for i, dem := range tape {
		want, err := d.Take(dem)
		if err != nil {
			t.Fatalf("entry %d dealer: %v", i, err)
		}
		got, err := s.Take(dem)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		eqCorr(t, fmt.Sprintf("entry %d %s", i, dem), got, want)
	}
	if s.Remaining() != 0 {
		t.Fatalf("store has %d correlations left after draining the tape", s.Remaining())
	}
}

// TestStoreMatchesLiveDealerStream pins the core invariant for both
// parties: a store built from seed S hands out byte-identical material to
// a live Dealer(S, party) consuming the same demand sequence.
func TestStoreMatchesLiveDealerStream(t *testing.T) {
	tape := testTape()
	for party := 0; party < 2; party++ {
		s, err := BuildSeeded(tape, party, 1234)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(tape) || s.Remaining() != len(tape) {
			t.Fatalf("party %d: Len=%d Remaining=%d want %d", party, s.Len(), s.Remaining(), len(tape))
		}
		drainAgainstDealer(t, s, 1234, tape)
	}
}

// TestBuildPairSharesOneStream checks that BuildPair produces both
// parties' halves off a single stream, identical to two per-party builds.
func TestBuildPairSharesOneStream(t *testing.T) {
	tape := testTape()
	s0, s1, err := BuildPair(tape, rng.New(77), 77)
	if err != nil {
		t.Fatal(err)
	}
	drainAgainstDealer(t, s0, 77, tape)
	drainAgainstDealer(t, s1, 77, tape)
}

// TestBuildDeterministicAcrossKernelSettings asserts store material does
// not depend on worker count or the naive-vs-lowered kernel path, so a
// store recorded under one setting replays under another.
func TestBuildDeterministicAcrossKernelSettings(t *testing.T) {
	tape := testTape()
	ref, err := BuildSeeded(tape, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	settings := []struct {
		workers int
		naive   bool
	}{{1, false}, {8, false}, {1, true}, {8, true}}
	for _, cfg := range settings {
		prevW := kernel.SetWorkers(cfg.workers)
		prevN := kernel.SetNaive(cfg.naive)
		s, err := BuildSeeded(tape, 1, 9)
		kernel.SetWorkers(prevW)
		kernel.SetNaive(prevN)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.entries {
			eqCorr(t, fmt.Sprintf("entry %d", i), s.entries[i], ref.entries[i])
		}
	}
}

// TestStoreExhaustionAndMismatchErrors pins the descriptive error
// contract: exhaustion and geometry mismatches name the correlation kind
// and the recorded vs requested shape.
func TestStoreExhaustionAndMismatchErrors(t *testing.T) {
	tape := Tape{{Kind: mpc.KindHadamard, N: 8}}
	s, err := BuildSeeded(tape, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong kind at the cursor.
	if _, err := s.Take(mpc.Demand{Kind: mpc.KindSquare, N: 8}); err == nil {
		t.Fatal("kind mismatch must error")
	} else if !strings.Contains(err.Error(), "hadamard(n=8)") || !strings.Contains(err.Error(), "square(n=8)") {
		t.Fatalf("mismatch error must name both demands, got: %v", err)
	}
	// Wrong geometry for the right kind.
	if _, err := s.Take(mpc.Demand{Kind: mpc.KindHadamard, N: 9}); err == nil {
		t.Fatal("geometry mismatch must error")
	} else if !strings.Contains(err.Error(), "hadamard(n=9)") {
		t.Fatalf("mismatch error must name the requested shape, got: %v", err)
	}
	// A failed take must not advance the cursor.
	if _, err := s.Take(tape[0]); err != nil {
		t.Fatalf("matching take after mismatch: %v", err)
	}
	// Exhaustion.
	if _, err := s.Take(tape[0]); err == nil {
		t.Fatal("exhausted store must error")
	} else if !strings.Contains(err.Error(), "exhausted") || !strings.Contains(err.Error(), "hadamard(n=8)") {
		t.Fatalf("exhaustion error must name the demand, got: %v", err)
	}
}

// TestValidateRejectsOverflowingConv pins the overflow hardening: conv
// geometries whose individual fields or whose products escape the size
// cap (including ones that wrap int64 into negative lengths, which would
// panic makeslice in the decoder) must be rejected by validate, not
// crash.
func TestValidateRejectsOverflowingConv(t *testing.T) {
	cases := []mpc.ConvDims{
		// Fields near 2^31: the products wrap negative.
		{N: 2, InC: 1, H: 1 << 31, W: 1 << 31, OutC: 1, KH: 1, KW: 1, Stride: 1 << 31},
		// Every field under the cap, but the input product overflows.
		{N: 1 << 20, InC: 1 << 20, H: 1 << 20, W: 1 << 20, OutC: 1, KH: 1, KW: 1, Stride: 1 << 20},
	}
	for i, c := range cases {
		d := mpc.Demand{Kind: mpc.KindConv, Conv: c}
		if err := d.Validate(); err == nil {
			t.Fatalf("case %d: hostile conv geometry must not validate", i)
		}
		if _, err := BuildSeeded(Tape{d}, 0, 1); err == nil {
			t.Fatalf("case %d: Build must reject the hostile tape", i)
		}
	}
}

// TestRecorderTape checks the recorder captures demands in order while
// passing the wrapped source's material through untouched.
func TestRecorderTape(t *testing.T) {
	rec := NewRecorder(mpc.NewDealer(3, 0))
	ref := mpc.NewDealer(3, 0)
	want := Tape{
		{Kind: mpc.KindHadamard, N: 5},
		{Kind: mpc.KindConv, Conv: mpc.ConvDims{N: 1, InC: 1, H: 4, W: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{Kind: mpc.KindBits, N: 12},
		{Kind: mpc.KindOT, N: 6},
	}
	for i, dem := range want {
		got, err := rec.Take(dem)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := ref.Take(dem)
		if err != nil {
			t.Fatal(err)
		}
		eqCorr(t, fmt.Sprintf("rec %d", i), got, wc)
	}
	if !rec.Tape().Equal(want) {
		t.Fatalf("recorded tape %v != %v", rec.Tape(), want)
	}
}

// TestTapeRepeat checks flush-count expansion.
func TestTapeRepeat(t *testing.T) {
	tp := Tape{{Kind: mpc.KindHadamard, N: 2}, {Kind: mpc.KindBits, N: 3}}
	r3 := tp.Repeat(3)
	if len(r3) != 6 {
		t.Fatalf("repeat length %d", len(r3))
	}
	for i, d := range r3 {
		if d != tp[i%2] {
			t.Fatalf("repeat entry %d = %v", i, d)
		}
	}
}

package corr

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pasnet/internal/rng"
)

// TestBuildPairGoldenBytes pins the exact PASCORR3 bytes BuildPair emits
// for a tape covering every correlation kind. The store ≡ dealer suites
// compare two consumers of one generator, so they cannot see a change to
// the generator's draw order; these digests can. A deliberate draw-order
// or format change must update them (and bump the format version if old
// stores no longer decode to the same material).
func TestBuildPairGoldenBytes(t *testing.T) {
	const (
		streamSeed = 0x5eed
		maskSeed   = 0xfeed
	)
	want := [2]string{
		"61abe7e74406b47a775bf40ee2cca46493c75f425a3e660565a2d68d56725791",
		"2bdda7c25f43b55fcf29bde89956d43c4c256da2f782a893c3d6c7e1381c4464",
	}
	tape := append(testTape(), fixedTestTape()...)
	s0, s1, err := BuildPair(tape, rng.New(streamSeed), maskSeed)
	if err != nil {
		t.Fatal(err)
	}
	for party, s := range []*Store{s0, s1} {
		sum := sha256.Sum256(s.Encode())
		if got := hex.EncodeToString(sum[:]); got != want[party] {
			t.Errorf("party %d store digest %s, want %s", party, got, want[party])
		}
	}
}

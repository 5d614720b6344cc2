// Package corr implements the preprocessing (offline-phase) subsystem of
// the 2PC deployment split: demand tapes that record the exact sequence of
// dealer correlations a compiled program consumes, a preprocessed
// correlation store that generates that tape ahead of time and hands it
// out during the measured online phase, and a checksummed on-disk format
// so stores can be produced by a `pasnet-server -party preprocess` run and
// loaded at serve time.
//
// The store builder and the live mpc.Dealer share one generator
// (mpc.Generator): the builder runs its cheap sequential randomness pass
// and defers party 1's heavy triple products (ring convolutions and matrix
// multiplies) to a parallel second pass sized from the kernel worker pool.
// A store built from seed S therefore hands out byte-identical
// correlations to a live mpc.NewDealer(S, party) consuming the same demand
// sequence — which is what makes the store-fed online phase bit-identical
// to the live-dealer path, the invariant the cross-source equivalence
// suite pins.
package corr

import "pasnet/internal/mpc"

// Tape is the ordered correlation demand sequence of one program
// evaluation. It is a pure function of the compiled program and the input
// geometry — never of input values, kernel worker count, or kernel
// lowering path — which is what makes preprocessing per batch geometry
// sound.
type Tape []mpc.Demand

// Equal reports whether two tapes record the identical demand sequence.
func (t Tape) Equal(o Tape) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Repeat concatenates n copies of the tape: the demand sequence of n
// identical flushes, used when preprocessing a store that must survive a
// whole serving session.
func (t Tape) Repeat(n int) Tape {
	out := make(Tape, 0, len(t)*n)
	for i := 0; i < n; i++ {
		out = append(out, t...)
	}
	return out
}

// Recorder wraps a CorrelationSource and records every demand flowing
// through it, building the tape the preprocessor later generates against.
// It forwards to the wrapped source, so a traced run still computes real
// results.
type Recorder struct {
	src  mpc.CorrelationSource
	tape Tape
}

// NewRecorder wraps src.
func NewRecorder(src mpc.CorrelationSource) *Recorder { return &Recorder{src: src} }

// Tape returns the demand sequence recorded so far.
func (r *Recorder) Tape() Tape { return r.tape }

// Take implements mpc.CorrelationSource.
func (r *Recorder) Take(d mpc.Demand) (mpc.Correlation, error) {
	r.tape = append(r.tape, d)
	return r.src.Take(d)
}

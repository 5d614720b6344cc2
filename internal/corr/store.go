package corr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pasnet/internal/kernel"
	"pasnet/internal/mpc"
	"pasnet/internal/rng"
)

// Store is a preprocessed correlation tape: one party's halves of every
// correlation a program evaluation will consume, in demand order. The
// online phase consumes it through the mpc.CorrelationSource interface;
// every Take validates kind and geometry against the recorded demand and
// returns a descriptive error on mismatch or exhaustion, before any
// protocol bytes move — so both parties fail symmetrically instead of
// desyncing.
//
// A Store is not safe for concurrent use, mirroring the Dealer it
// replaces.
type Store struct {
	party   int
	label   uint32
	tape    Tape
	entries []mpc.Correlation
	cursor  int
}

// Party returns which party's halves the store holds.
func (s *Store) Party() int { return s.party }

// Label is the preprocess-run stamp: both parties' stores from one
// preprocess run carry the same label, so a deployment can cheaply detect
// stores provisioned from different runs (different seeds yield
// inconsistent correlation halves and silently wrong results otherwise).
// It is preserved by serialization.
func (s *Store) Label() uint32 { return s.label }

// SetLabel stamps the store (see Label).
func (s *Store) SetLabel(l uint32) { s.label = l }

// Len returns the total number of preprocessed correlations.
func (s *Store) Len() int { return len(s.entries) }

// Remaining returns how many correlations are still unconsumed.
func (s *Store) Remaining() int { return len(s.entries) - s.cursor }

// Tape returns the demand tape the store was generated for.
func (s *Store) Tape() Tape { return s.tape }

// Build generates one party's store for the tape with the same generator
// a live mpc.Dealer runs, drawing from r — so the stream advances
// identically for either party, and the resulting correlations are
// byte-identical to the live dealer's. The heavy triple products (ring
// convolutions, matrix multiplies) run in a parallel second pass sized
// from the kernel worker pool; only party 1's halves need them, so party
// 0's build is almost pure RNG.
//
// maskSeed is the *pair's* dealer seed, which may differ from r's stream:
// fixed weight masks (the FixedB kinds) are derived out-of-band from the
// dealer seed, not from the main stream, so a store provisioned off a
// per-geometry stream still replays z = a@b against the same b the
// session's live dealer minted and opened F = W−b with at setup. Tapes
// without FixedB demands never touch maskSeed.
func Build(tape Tape, party int, r *rng.RNG, maskSeed uint64) (*Store, error) {
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("corr: party must be 0 or 1, got %d", party)
	}
	s0, s1, err := build(tape, r, maskSeed, party == 0, party == 1)
	if err != nil {
		return nil, err
	}
	if party == 0 {
		return s0, nil
	}
	return s1, nil
}

// BuildSeeded is Build starting a fresh dealer stream from seed, matching
// mpc.NewDealer(seed, party). The stream seed doubles as the mask seed,
// exactly as it does for a live dealer.
func BuildSeeded(tape Tape, party int, seed uint64) (*Store, error) {
	return Build(tape, party, rng.New(seed), seed)
}

// BuildPair generates both parties' stores in one pass over a shared
// dealer stream (the in-process deployment shape, where one preprocessor
// provisions both endpoints). maskSeed is the pair's dealer seed (see
// Build).
func BuildPair(tape Tape, r *rng.RNG, maskSeed uint64) (p0, p1 *Store, err error) {
	return build(tape, r, maskSeed, true, true)
}

// build runs the shared generator (mpc.Generator) over the tape. The
// sequential pass draws every demand's randomness in the dealer's order
// and keeps party 0's halves, which are only masks; party 1's halves need
// the triple products, so they are derived from the kept draws in a
// parallel second pass.
func build(tape Tape, r *rng.RNG, maskSeed uint64, want0, want1 bool) (*Store, *Store, error) {
	var s0, s1 *Store
	if want0 {
		s0 = &Store{party: 0, tape: append(Tape(nil), tape...), entries: make([]mpc.Correlation, len(tape))}
	}
	var draws []*mpc.Draw
	if want1 {
		s1 = &Store{party: 1, tape: append(Tape(nil), tape...), entries: make([]mpc.Correlation, len(tape))}
		draws = make([]*mpc.Draw, len(tape))
	}
	gen := mpc.NewGenerator(r, maskSeed)
	for i, d := range tape {
		if err := d.Validate(); err != nil {
			return nil, nil, fmt.Errorf("corr: tape entry %d: %w", i, err)
		}
		dr, err := gen.Next(d)
		if err != nil {
			return nil, nil, fmt.Errorf("corr: tape entry %d: %w", i, err)
		}
		if want0 {
			s0.entries[i] = dr.Half(0)
		}
		if want1 {
			draws[i] = dr
		}
	}
	if want1 {
		splitParty1(s1, draws)
	}
	return s0, s1, nil
}

// splitParty1 derives party 1's halves across worker goroutines sized
// from the kernel pool's parallelism degree. The per-product kernels are
// themselves chunked on the shared pool, and their accumulation order
// never depends on worker count, so store material is bit-identical for
// any kernel.SetWorkers / SetNaive configuration — the invariant that lets
// a store recorded under one setting replay under another.
func splitParty1(s1 *Store, draws []*mpc.Draw) {
	workers := max(1, min(kernel.Workers(), len(draws)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(draws) {
					return
				}
				s1.entries[i] = draws[i].Half(1)
			}
		}()
	}
	wg.Wait()
}

// Take implements mpc.CorrelationSource: it validates and consumes the
// cursor's entry against the online phase's actual request. The error text names the correlation kind and
// the recorded vs requested geometry so a misprovisioned deployment is
// diagnosable from either party's log alone.
func (s *Store) Take(want mpc.Demand) (mpc.Correlation, error) {
	if s.cursor >= len(s.entries) {
		return mpc.Correlation{}, fmt.Errorf(
			"corr: store exhausted: online phase requested %s as correlation #%d, but the preprocessed store holds only %d correlations (preprocess more flushes or fall back to the live dealer)",
			want, s.cursor+1, len(s.entries))
	}
	if got := s.tape[s.cursor]; got != want {
		return mpc.Correlation{}, fmt.Errorf(
			"corr: store geometry mismatch at correlation #%d: store recorded %s, online phase requested %s (was the store preprocessed for a different batch geometry?)",
			s.cursor+1, got, want)
	}
	c := s.entries[s.cursor]
	s.cursor++
	return c, nil
}

package corr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strings"

	"pasnet/internal/mpc"
)

// On-disk store format (all integers little-endian):
//
//	magic   8 bytes  "PASCORR3"
//	body:
//	  party   uint8
//	  label   uint32                      preprocess-run stamp (see Label)
//	  count   uint32                      demand tape length
//	  per entry:
//	    kind  uint8
//	    dims  kind-dependent uint32s      (n) | (m,k,p) | 10 conv fields |
//	                                      (mask,m,k,p) | mask + 10 conv
//	    payload                           uint64 words; bit triples as three
//	                                      arrays packed 8 bits per byte;
//	                                      random OTs one byte per instance
//	                                      (party 0) or two per byte (party
//	                                      1, low nibble first) — lengths
//	                                      derived from the dims and party
//	trailer  uint32  CRC-32 (IEEE) of the body
//
// The trailer means a flipped byte or a truncated download fails loudly at
// load time instead of desyncing the two parties mid-protocol; the dims
// are validated against the same caps as the generator before any payload
// allocation, so a hostile file cannot demand a pathological allocation.
//
// Version history: "PASCORR1" lacked the fixed weight-mask kinds
// (mpc.KindMatMulFixedB / mpc.KindConvFixedB) and their mask-slot dim;
// "PASCORR2" stored bit triples one byte per bit and had no random-OT
// kind (mpc.KindOT). The magic is the version gate — any "PASCORR"-prefixed
// file of another version is rejected with a regeneration hint rather
// than misparsed, in either direction (old binary × new store, new
// binary × old store).

// storeMagic identifies a serialized correlation store at this binary's
// format version.
const storeMagic = "PASCORR3"

// storeMagicPrefix identifies any version of the store format.
const storeMagicPrefix = "PASCORR"

// Encode serializes the store (including its consumed entries; a decoded
// store always starts with its cursor rewound to the beginning).
func (s *Store) Encode() []byte {
	size := len(storeMagic) + 1 + 4 + 4 + 4
	for i := range s.entries {
		la, lb, lz := s.tape[i].Lens()
		switch s.tape[i].Kind {
		case mpc.KindBits:
			size += 1 + 4 + 3*mpc.PackedLen(la)
		case mpc.KindOT:
			size += 1 + 4 + otPayloadLen(s.party, s.tape[i].N)
		case mpc.KindSquare:
			size += 1 + 4 + 8*(la+lz)
		case mpc.KindMatMul:
			size += 1 + 12 + 8*(la+lb+lz)
		case mpc.KindMatMulFixedB:
			size += 1 + 16 + 8*(la+lz)
		case mpc.KindConv:
			size += 1 + 40 + 8*(la+lb+lz)
		case mpc.KindConvFixedB:
			size += 1 + 44 + 8*(la+lz)
		default: // hadamard
			size += 1 + 4 + 8*(la+lb+lz)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, storeMagic...)
	buf = append(buf, byte(s.party))
	buf = binary.LittleEndian.AppendUint32(buf, s.label)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.entries)))
	for i := range s.entries {
		d := s.tape[i]
		e := &s.entries[i]
		buf = append(buf, byte(d.Kind))
		switch d.Kind {
		case mpc.KindMatMul:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.M))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.K))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.P))
		case mpc.KindMatMulFixedB:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Mask))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.M))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.K))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.P))
		case mpc.KindConv, mpc.KindConvFixedB:
			if d.Kind == mpc.KindConvFixedB {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Mask))
			}
			c := d.Conv
			for _, v := range []int{c.N, c.InC, c.H, c.W, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups} {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		default:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.N))
		}
		switch d.Kind {
		case mpc.KindBits:
			buf = append(buf, mpc.PackBits(e.BA)...)
			buf = append(buf, mpc.PackBits(e.BB)...)
			buf = append(buf, mpc.PackBits(e.BC)...)
			continue
		case mpc.KindOT:
			buf = appendOT(buf, s.party, e.OT)
			continue
		}
		buf = appendWords(buf, e.A)
		buf = appendWords(buf, e.B) // empty for square pairs and fixed-mask kinds
		buf = appendWords(buf, e.Z)
	}
	crc := crc32.ChecksumIEEE(buf[len(storeMagic):])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// Decode parses a serialized store, verifying the checksum before any
// structural parsing and every geometry before any payload allocation.
func Decode(data []byte) (*Store, error) {
	if len(data) < len(storeMagic)+1+4+4+4 {
		return nil, fmt.Errorf("corr: store file truncated: %d bytes is shorter than the fixed header", len(data))
	}
	if string(data[:len(storeMagic)]) != storeMagic {
		if string(data[:len(storeMagicPrefix)]) == storeMagicPrefix {
			return nil, fmt.Errorf("corr: store file is format version %q but this binary reads %q — regenerate the store with this binary's preprocess step (store formats are not compatible across versions)",
				string(data[:len(storeMagic)]), storeMagic)
		}
		return nil, fmt.Errorf("corr: not a correlation store file (bad magic)")
	}
	body := data[len(storeMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("corr: store file checksum mismatch (corrupt or truncated): got %08x, recorded %08x", got, wantCRC)
	}
	r := &byteReader{data: body}
	party := int(r.u8())
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("corr: store file names party %d (want 0 or 1)", party)
	}
	label := r.u32()
	count := int(r.u32())
	// Two caps keep a hostile declared count from demanding pathological
	// allocations: the remaining body bounds the entry table (every entry
	// carries at least a kind byte, a dim word and — since validate
	// rejects empty demands — real payload, at least one byte: minEntry
	// is a one-instance receiver OT batch), and an absolute ceiling far
	// above any real tape bounds the per-entry bookkeeping overhead. The
	// entry table itself grows by append, so memory tracks the bytes the
	// file actually contains rather than what its header promises.
	const maxStoreEntries = 1 << 20
	const minEntry = 1 + 4 + 1
	if count > maxStoreEntries || count > r.rest()/minEntry {
		return nil, fmt.Errorf("corr: store file declares %d correlations against %d body bytes (cap %d)", count, r.rest(), maxStoreEntries)
	}
	growCap := count
	if growCap > 4096 {
		growCap = 4096
	}
	s := &Store{party: party, label: label, tape: make(Tape, 0, growCap), entries: make([]mpc.Correlation, 0, growCap)}
	for i := 0; i < count; i++ {
		d := mpc.Demand{Kind: mpc.Kind(r.u8())}
		switch d.Kind {
		case mpc.KindMatMul:
			d.M, d.K, d.P = int(r.u32()), int(r.u32()), int(r.u32())
		case mpc.KindMatMulFixedB:
			d.Mask = int(r.u32())
			d.M, d.K, d.P = int(r.u32()), int(r.u32()), int(r.u32())
		case mpc.KindConv, mpc.KindConvFixedB:
			if d.Kind == mpc.KindConvFixedB {
				d.Mask = int(r.u32())
			}
			c := &d.Conv
			for _, f := range []*int{&c.N, &c.InC, &c.H, &c.W, &c.OutC, &c.KH, &c.KW, &c.Stride, &c.Pad, &c.Groups} {
				*f = int(r.u32())
			}
		default:
			d.N = int(r.u32())
		}
		if r.err != nil {
			return nil, fmt.Errorf("corr: store file truncated in entry %d header: %w", i, r.err)
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("corr: store file entry %d: %w", i, err)
		}
		la, lb, lz := d.Lens()
		var e mpc.Correlation
		switch d.Kind {
		case mpc.KindBits:
			e.BA = r.packedBits(la)
			e.BB = r.packedBits(la)
			e.BC = r.packedBits(la)
		case mpc.KindOT:
			e.OT = r.ot(party, d.N)
		default:
			e.A = r.words(la)
			e.B = r.words(lb)
			e.Z = r.words(lz)
		}
		if r.err != nil {
			return nil, fmt.Errorf("corr: store file truncated in entry %d (%s) payload: %w", i, d, r.err)
		}
		s.entries = append(s.entries, e)
		s.tape = append(s.tape, d)
	}
	if r.rest() != 0 {
		return nil, fmt.Errorf("corr: store file has %d trailing bytes after the last entry", r.rest())
	}
	return s, nil
}

// WriteFile atomically-ish writes the encoded store (temp file + rename
// would need a directory walk; a short-lived partial file is acceptable
// because the checksum rejects it at load time).
func (s *Store) WriteFile(path string) error {
	return os.WriteFile(path, s.Encode(), 0o644)
}

// ReadFile loads and decodes a store file.
func ReadFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corr: read store: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("corr: %s: %w", path, err)
	}
	return s, nil
}

// FileName is the canonical store file name for one party and one input
// geometry, e.g. "corr_p1_n4x3x16x16.pcs" — the contract between the
// `pasnet-server -party preprocess` writer and the serve-time loader.
func FileName(party int, shape []int) string {
	dims := make([]string, len(shape))
	for i, d := range shape {
		dims[i] = fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("corr_p%d_n%s.pcs", party, strings.Join(dims, "x"))
}

func appendWords(buf []byte, ws []uint64) []byte {
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// byteReader is a bounds-checked cursor over the store body; the first
// shortfall latches err and zero-fills every later read.
type byteReader struct {
	data []byte
	off  int
	err  error
}

func (r *byteReader) rest() int { return len(r.data) - r.off }

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.rest() < n {
		r.err = fmt.Errorf("need %d bytes, %d left", n, r.rest())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) words(n int) []uint64 {
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// packedBits reads n bits packed 8 per byte (mpc.PackBits layout).
func (r *byteReader) packedBits(n int) mpc.BitShare {
	b := r.take(mpc.PackedLen(n))
	if b == nil {
		return nil
	}
	return mpc.UnpackBits(b, n)
}

// ot reads n random-OT halves in party's on-disk layout (see appendOT).
func (r *byteReader) ot(party, n int) []byte {
	b := r.take(otPayloadLen(party, n))
	if b == nil {
		return nil
	}
	if party == 0 {
		return append([]byte(nil), b...)
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = (b[i>>1] >> (4 * (i & 1))) & 0xf
	}
	return out
}

// otPayloadLen is the on-disk size of n random-OT halves: the sender's
// four 2-bit messages fill a byte, the receiver's c|m_c<<2 is a nibble.
func otPayloadLen(party, n int) int {
	if party == 0 {
		return n
	}
	return (n + 1) / 2
}

// appendOT appends n random-OT halves: party 0's bytes verbatim, party 1's
// nibbles two per byte, low nibble first.
func appendOT(buf []byte, party int, ot []byte) []byte {
	if party == 0 {
		return append(buf, ot...)
	}
	for i := 0; i < len(ot); i += 2 {
		b := ot[i] & 0xf
		if i+1 < len(ot) {
			b |= ot[i+1] << 4
		}
		buf = append(buf, b)
	}
	return buf
}

package dnsmsg

// compressor is the per-message name-compression table (RFC 1035 §4.1.4)
// behind Pack, AppendPack and PackBuffer. It maps every name suffix the
// message has written out in full to the offset of its first copy.
//
// The table is an open-addressed array of (suffix, offset) entries
// probed with a polynomial hash that appendName computes in one pass
// over a name and steps to each shorter suffix with a multiply and a
// subtract, so no suffix is hashed from scratch and no Go map is
// involved. The table is emptied by bumping a generation number, so
// emptying one that once held a 64 KiB zone-transfer message costs no
// more than emptying one that held a single question. Pack keeps a
// small table on its stack; PackBuffer keeps one in the message arena.
//
// The pointers it picks are those of the map-based reference encoder
// in reference_test.go: the first-written offset of each suffix, only
// offsets below 0x4000, and suffixes compared byte for byte — so
// case-sensitively, with "foo" and "foo." distinct.
type compressor struct {
	slots []centry // len is a power of two
	n     int      // entries of the current generation
	gen   uint32   // entries holding this generation are in use
}

// centry is one suffix and the offset of its first copy.
type centry struct {
	suffix string
	hash   uint32
	gen    uint32
	off    uint16
}

// maxPointerOff is the first offset a 14-bit compression pointer cannot
// reach.
const maxPointerOff = 0x4000

// hashMul is the polynomial hash's multiplier. It is odd, so it has an
// inverse modulo 2^32, which suffixHasher uses to drop labels off the
// front of a name. hashMul2..4 are its powers, for hashing four bytes a
// step.
const (
	hashMul  = 0x01000193
	hashMul2 = hashMul * hashMul & 0xFFFFFFFF
	hashMul3 = hashMul2 * hashMul & 0xFFFFFFFF
	hashMul4 = hashMul3 * hashMul & 0xFFFFFFFF
)

// invPow[k] is hashMul^-k mod 2^32, for stepping past a label and its
// dot (at most MaxLabelLen+1 bytes).
var invPow = func() (t [MaxLabelLen + 2]uint32) {
	inv := uint32(hashMul) // Newton's iteration: each step doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - hashMul*inv
	}
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * inv
	}
	return t
}()

// suffixHasher yields the hash of each suffix of one name, longest
// first: hash(s) = Σ s[i]·hashMul^(len(s)-1-i), so the hash of s[p:] is
// hash(s) − hash(s[:p])·hashMul^(len(s)-p).
type suffixHasher struct {
	full   uint32 // hash of the whole name
	prefix uint32 // hash of the labels already stepped past
	pow    uint32 // hashMul^(bytes not yet stepped past)
}

// newSuffixHasher hashes n; its first suffix is n itself.
func newSuffixHasher(n string) suffixHasher {
	full, pow := hashBytes(0, 1, n)
	return suffixHasher{full: full, pow: pow}
}

// hash returns the current suffix's hash.
func (h *suffixHasher) hash() uint32 { return h.full - h.prefix*h.pow }

// next steps past label and the dot after it (len(label) ≤ MaxLabelLen).
func (h *suffixHasher) next(label string) {
	h.prefix, _ = hashBytes(h.prefix, 1, label)
	h.prefix = h.prefix*hashMul + '.'
	h.pow *= invPow[len(label)+1]
}

// hashBytes extends hash h over s and multiplies pow by hashMul^len(s).
// Four bytes a step keep the serial multiply chain a quarter as long.
func hashBytes(h, pow uint32, s string) (uint32, uint32) {
	i := 0
	for ; i+4 <= len(s); i += 4 {
		h = h*hashMul4 + uint32(s[i])*hashMul3 + uint32(s[i+1])*hashMul2 + uint32(s[i+2])*hashMul + uint32(s[i+3])
		pow *= hashMul4
	}
	for ; i < len(s); i++ {
		h = h*hashMul + uint32(s[i])
		pow *= hashMul
	}
	return h, pow
}

// reset empties the table for the next message, keeping its memory.
func (c *compressor) reset() {
	if c.slots == nil {
		c.slots = make([]centry, 16)
	}
	c.n = 0
	if c.gen++; c.gen == 0 { // wrapped: stale entries could look current
		clear(c.slots)
		c.gen = 1
	}
}

// find returns the offset of suffix s (whose hash is h) if the message
// already holds it. Otherwise it records s at off when a pointer can
// reach off, and reports false.
func (c *compressor) find(s string, h uint32, off int) (int, bool) {
	mask := uint32(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &c.slots[i]
		if e.gen != c.gen {
			if off < maxPointerOff {
				*e = centry{suffix: s, hash: h, gen: c.gen, off: uint16(off)}
				if c.n++; 4*c.n > 3*len(c.slots) {
					c.grow()
				}
			}
			return 0, false
		}
		if e.hash == h && e.suffix == s {
			return int(e.off), true
		}
	}
}

// grow moves the entries to a table twice the size.
func (c *compressor) grow() {
	old := c.slots
	c.slots = make([]centry, 2*len(old))
	mask := uint32(len(c.slots) - 1)
	for _, e := range old {
		if e.gen != c.gen {
			continue
		}
		i := e.hash & mask
		for c.slots[i].gen == c.gen {
			i = (i + 1) & mask
		}
		c.slots[i] = e
	}
}

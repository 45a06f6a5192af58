package zone

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"ldplayer/internal/dnsmsg"
)

// This file implements the streaming master-file tokenizer: the
// million-records/sec ingestion path behind Parse. The design follows
// simdzone's "Parsing Millions of DNS Records per Second": read the
// input in large chunks, tokenize on []byte without materializing
// per-token strings, and decode rdata into a per-record arena so the
// steady state allocates nothing per record.
//
// The old bufio.Scanner parser is kept verbatim as parseReference (see
// reference_test.go): it is the executable specification that
// FuzzZoneParseDifferential proves this parser equivalent to, the same
// way PR 4 proved the arena codec against the reference decoder. Every
// quirk of the reference — the line-scoped quote rules, the "" blank
// owner marker, skipped token-less lines at depth 0, parseTTL's
// unit-suffix wraparound, netip's address grammar — is replicated here
// bit for bit; where a form is rare (RFC 3597 \#, TYPE###/CLASS###
// fallbacks, IPv6 zones) this parser calls the same stdlib routines the
// reference uses, so divergence is impossible by construction.

// tokRef locates one token. Tokens normally alias the parser's input
// window (off relative to the start of the current record); quoted
// tokens that needed escape processing live in the per-record arena
// instead. A zero tokRef (n == 0, not quoted) is the blank-owner
// marker, mirroring the reference tokenizer's "" token.
type tokRef struct {
	off    int
	n      int
	quoted bool // came from a "..." string (reference prefixes these with \x00)
	arena  bool // content lives in sp.arena, not the input window
}

// Rec is one parsed resource record, valid until the next Next or Reset
// call on the StreamParser that produced it. All byte slices alias the
// parser's internal buffers: callers that retain a record must copy
// (RR() produces an independent dnsmsg.RR).
type Rec struct {
	Line  int    // first line of the record in the input (1-based)
	Owner []byte // canonical presentation form (lowercase FQDN)
	Type  dnsmsg.Type
	Class dnsmsg.Class
	TTL   uint32

	// rdata fields; which ones are meaningful depends on Type.
	addr         netip.Addr // A, AAAA
	name1, name2 []byte     // NS/CNAME/PTR target, MX host, SRV target, SOA mname/rname, RRSIG signer, NSEC next
	u32s         [5]uint32  // SOA serial..minimum; RRSIG origTTL/expiration/inception
	u16s         [3]uint16  // MX pref; SRV prio/weight/port; DS keytag; DNSKEY flags; RRSIG keytag
	u8s          [2]uint8   // DS alg/digesttype; DNSKEY proto/alg; RRSIG alg/labels
	cov          dnsmsg.Type
	blob         []byte        // DS digest, DNSKEY key, RRSIG signature, Raw data
	strs         [][]byte      // TXT strings
	types        []dnsmsg.Type // NSEC type bitmap
}

// errArenaGrew is an internal invariant violation: record decoding is
// sized so the arena never reallocates mid-record (offsets taken before
// a reallocation would dangle). It should be unreachable; the
// differential fuzz target would surface it as an accept/reject
// mismatch against the reference parser.
var errArenaGrew = errors.New("zone: internal error: arena grew during record decode")

// StreamParser reads a master file record by record. The zero value is
// not usable; construct with NewStreamParser and reuse via Reset to
// amortize buffers across files.
type StreamParser struct {
	r   io.Reader
	buf []byte
	// Window state: buf[pos:end] is unconsumed input; buf[recStart:pos]
	// holds the current record's already-scanned lines (tokens alias
	// it). When parsing from memory (ResetBytes) buf is the whole input
	// and never refills or compacts.
	pos, end  int
	recStart  int
	eof       bool
	noRefill  bool
	readErr   error // deferred non-EOF read error, surfaced like sc.Err()
	emptyRds  int   // consecutive zero-byte reads, like bufio.Scanner
	line      int   // number of the most recently scanned line (1-based)
	recLine   int   // first line of the current record
	sawRecord bool  // a record's first line has been consumed

	// Parser state, mirroring the reference parser struct.
	origin    dnsmsg.Name
	defTTL    uint32
	lastOwner []byte // canonical owner of the previous record (owned buffer)
	zoneSet   bool   // reference's p.zone != nil
	zoneOrig  dnsmsg.Name

	toks  []tokRef
	arena []byte
	err   error // sticky

	// One-entry cache for the last $ORIGIN argument parsed. ParseName
	// is pure, so identical bytes give identical results; the cache
	// survives Reset so that reparsing the same input (replay restarts,
	// benchmarks) allocates nothing after the first pass.
	dirCacheArg  []byte
	dirCacheName dnsmsg.Name
	dirCacheErr  error
	dirCacheSet  bool
}

// NewStreamParser returns a parser reading records from r. origin may
// be "" when the file carries its own $ORIGIN.
func NewStreamParser(r io.Reader, origin dnsmsg.Name) *StreamParser {
	sp := &StreamParser{}
	sp.Reset(r, origin)
	return sp
}

// NewStreamParserBytes parses directly from an in-memory buffer with no
// copying of the input.
func NewStreamParserBytes(data []byte, origin dnsmsg.Name) *StreamParser {
	sp := &StreamParser{}
	sp.ResetBytes(data, origin)
	return sp
}

// Reset rearms the parser for a new input, keeping its buffers.
func (sp *StreamParser) Reset(r io.Reader, origin dnsmsg.Name) {
	sp.resetState(origin)
	sp.r = r
	if sp.buf == nil {
		sp.buf = make([]byte, 64*1024)
	}
	sp.pos, sp.end = 0, 0
	sp.noRefill, sp.eof = false, false
}

// ResetBytes rearms the parser over an in-memory input.
func (sp *StreamParser) ResetBytes(data []byte, origin dnsmsg.Name) {
	sp.resetState(origin)
	sp.r = nil
	sp.buf = data
	sp.pos, sp.end = 0, len(data)
	sp.noRefill, sp.eof = true, true
}

func (sp *StreamParser) resetState(origin dnsmsg.Name) {
	sp.origin = origin
	sp.defTTL = 3600
	sp.lastOwner = sp.lastOwner[:0]
	sp.zoneSet = false
	sp.zoneOrig = ""
	sp.line, sp.recLine = 0, 0
	sp.recStart = 0
	sp.readErr, sp.err = nil, nil
	sp.emptyRds = 0
	sp.sawRecord = false
	sp.toks = sp.toks[:0]
	if sp.noRefill {
		// The previous input is the caller's; drop the alias.
		sp.buf = nil
	}
	sp.arena = sp.arena[:0]
}

// Origin returns the current origin (the argument origin, as modified
// by any $ORIGIN directives consumed so far).
func (sp *StreamParser) Origin() dnsmsg.Name { return sp.origin }

// ZoneOrigin returns the origin the zone under construction was
// anchored at (the origin in effect at the first record or $ORIGIN
// directive), mirroring the reference parser's lazy zone creation.
func (sp *StreamParser) ZoneOrigin() (dnsmsg.Name, bool) { return sp.zoneOrig, sp.zoneSet }

// Next parses the next resource record into rec. It returns io.EOF at
// the end of input, and a sticky error on malformed input. Directives
// ($ORIGIN, $TTL) are consumed internally. Error strings are identical
// to the reference parser's.
func (sp *StreamParser) Next(rec *Rec) error {
	if sp.err != nil {
		return sp.err
	}
	for {
		ok, err := sp.scanRecord()
		if err != nil {
			sp.err = err
			return err
		}
		if !ok {
			sp.err = io.EOF
			return io.EOF
		}
		isRec, err := sp.decodeRecord(rec)
		if err != nil {
			sp.err = fmt.Errorf("zone parse line %d: %w", sp.recLine, err)
			return sp.err
		}
		if isRec {
			return nil
		}
	}
}

// special marks the byte classes that terminate a bare token.
var special [256]bool

func init() {
	for _, c := range []byte{' ', '\t', ';', '(', ')', '"'} {
		special[c] = true
	}
}

// scanRecord accumulates one logical record's tokens (spanning
// parenthesized continuation lines) into sp.toks. ok is false at clean
// EOF. Errors carry the exact reference-parser messages.
func (sp *StreamParser) scanRecord() (ok bool, err error) {
	sp.toks = sp.toks[:0]
	sp.arena = sp.arena[:0]
	sp.sawRecord = false
	depth := 0
	for {
		if !sp.sawRecord {
			sp.recStart = sp.pos
		}
		ls, le, haveLine := sp.nextLine()
		if !haveLine {
			if sp.readErr != nil {
				return false, sp.readErr
			}
			if depth != 0 {
				return false, fmt.Errorf("zone parse: unclosed '(' at EOF")
			}
			return false, nil
		}
		before := len(sp.toks)
		opens, closes := sp.scanTokens(ls, le, !sp.sawRecord)
		if !sp.sawRecord {
			if len(sp.toks) == before {
				// Token-less line at depth 0: skipped entirely, parens
				// and all, exactly like the reference loop.
				continue
			}
			sp.sawRecord = true
			sp.recLine = sp.line
		}
		depth += opens - closes
		if depth < 0 {
			return false, fmt.Errorf("zone parse line %d: unbalanced ')'", sp.line)
		}
		if depth == 0 {
			return true, nil
		}
	}
}

// nextLine produces the next line's span [ls, le) in sp.buf, with the
// trailing "\r\n" handling of bufio.ScanLines. It refills the window as
// needed; a line has no length limit (the buffer grows to fit, fixing
// the reference parser's 1 MiB cap).
func (sp *StreamParser) nextLine() (ls, le int, ok bool) {
	for {
		if i := bytes.IndexByte(sp.buf[sp.pos:sp.end], '\n'); i >= 0 {
			ls, le = sp.pos, sp.pos+i
			sp.pos = le + 1
		} else if sp.eof {
			if sp.pos == sp.end {
				return 0, 0, false
			}
			ls, le = sp.pos, sp.end
			sp.pos = sp.end
		} else {
			sp.refill()
			continue
		}
		if le > ls && sp.buf[le-1] == '\r' {
			le--
		}
		sp.line++
		return ls, le, true
	}
}

// refill slides the live window (everything from the current record's
// start) to the front of the buffer, grows it if full, and reads more
// input. Read errors are deferred until the lines already buffered have
// been consumed, matching bufio.Scanner.
func (sp *StreamParser) refill() {
	if sp.recStart > 0 {
		n := copy(sp.buf, sp.buf[sp.recStart:sp.end])
		sp.pos -= sp.recStart
		sp.end = n
		sp.recStart = 0
	}
	if sp.end == len(sp.buf) {
		grown := make([]byte, 2*len(sp.buf))
		copy(grown, sp.buf[:sp.end])
		sp.buf = grown
	}
	n, err := sp.r.Read(sp.buf[sp.end:])
	sp.end += n
	switch {
	case err == io.EOF:
		sp.eof = true
	case err != nil:
		sp.eof = true
		sp.readErr = err
	case n == 0:
		if sp.emptyRds++; sp.emptyRds > 100 {
			sp.eof = true
			sp.readErr = io.ErrNoProgress
		}
	default:
		sp.emptyRds = 0
	}
}

// scanTokens tokenizes one line, appending to sp.toks. It replicates
// the reference tokenize(): ';' comments to end of line (outside
// quotes), line-scoped double quotes with backslash escapes, parens
// counted but not emitted, and — on a record's first line only — a
// leading blank plus at least one token yields the blank-owner marker.
func (sp *StreamParser) scanTokens(ls, le int, firstLine bool) (opens, closes int) {
	b := sp.buf
	leadingBlank := le > ls && (b[ls] == ' ' || b[ls] == '\t')
	startIdx := len(sp.toks)
	i := ls
scan:
	for i < le {
		switch c := b[i]; {
		case c == ';':
			break scan
		case c == ' ' || c == '\t':
			i++
		case c == '(':
			opens++
			i++
		case c == ')':
			closes++
			i++
		case c == '"':
			j := i + 1
			for j < le && b[j] != '"' && b[j] != '\\' {
				j++
			}
			if j < le && b[j] == '"' {
				// No escapes: the token aliases the input directly.
				sp.toks = append(sp.toks, tokRef{off: i + 1 - sp.recStart, n: j - i - 1, quoted: true})
				i = j + 1
				continue
			}
			// Escapes (or an unterminated quote, which consumes the
			// rest of the line): unescape into the arena, mirroring the
			// reference's strings.Builder loop byte for byte.
			as := len(sp.arena)
			j = i + 1
			for j < le && b[j] != '"' {
				if b[j] == '\\' && j+1 < le {
					j++
				}
				sp.arena = append(sp.arena, b[j])
				j++
			}
			sp.toks = append(sp.toks, tokRef{off: as, n: len(sp.arena) - as, quoted: true, arena: true})
			i = j + 1
		default:
			j := i
			for j < le && !special[b[j]] {
				j++
			}
			sp.toks = append(sp.toks, tokRef{off: i - sp.recStart, n: j - i})
			i = j
		}
	}
	if firstLine && leadingBlank && len(sp.toks) > startIdx {
		sp.toks = append(sp.toks, tokRef{})
		copy(sp.toks[startIdx+1:], sp.toks[startIdx:])
		sp.toks[startIdx] = tokRef{}
	}
	return opens, closes
}

// tokBytes resolves a token to its content bytes (quoted tokens yield
// the unescaped content, without the reference's \x00 prefix).
func (sp *StreamParser) tokBytes(t tokRef) []byte {
	if t.arena {
		return sp.arena[t.off : t.off+t.n]
	}
	off := sp.recStart + t.off
	return sp.buf[off : off+t.n]
}

// classicTok reconstructs the reference tokenizer's string form of a
// token (quoted tokens carry the \x00 marker prefix). Only used on
// error and rare fallback paths, where allocation is fine — it keeps
// error strings and stdlib fallback behavior identical to the
// reference.
func (sp *StreamParser) classicTok(t tokRef) string {
	if t.quoted {
		return "\x00" + string(sp.tokBytes(t))
	}
	return string(sp.tokBytes(t))
}

func (t tokRef) isMarker() bool { return t.n == 0 && !t.quoted }

// masterFileSafeBytes is masterFileSafe over a byte slice.
func masterFileSafeBytes(tok []byte) bool {
	for _, c := range tok {
		if special[c] || c < 0x20 || c == 0x7f {
			return false
		}
	}
	return true
}

var (
	dirOrigin  = []byte("$ORIGIN")
	dirTTL     = []byte("$TTL")
	dirInclude = []byte("$INCLUDE")
)

// decodeRecord interprets the scanned tokens. isRec is false for
// directives. Errors are unwrapped here; Next adds the line prefix.
func (sp *StreamParser) decodeRecord(rec *Rec) (isRec bool, err error) {
	ts := sp.toks
	t0 := ts[0]
	if !t0.quoted && t0.n > 0 && sp.tokBytes(t0)[0] == '$' {
		b0 := sp.tokBytes(t0)
		switch {
		case bytes.Equal(b0, dirOrigin):
			if len(ts) < 2 {
				return false, fmt.Errorf("$ORIGIN needs a name")
			}
			t1 := ts[1]
			if t1.quoted || !masterFileSafeBytes(sp.tokBytes(t1)) {
				return false, fmt.Errorf("origin %q contains characters that cannot round-trip a master file", sp.classicTok(t1))
			}
			arg := sp.tokBytes(t1)
			if !sp.dirCacheSet || !bytes.Equal(arg, sp.dirCacheArg) {
				n, err := dnsmsg.ParseName(string(arg))
				sp.dirCacheArg = append(sp.dirCacheArg[:0], arg...)
				sp.dirCacheName, sp.dirCacheErr = n, err
				sp.dirCacheSet = true
			}
			if sp.dirCacheErr != nil {
				return false, sp.dirCacheErr
			}
			sp.origin = sp.dirCacheName
			if !sp.zoneSet {
				sp.zoneSet, sp.zoneOrig = true, sp.dirCacheName
			}
			return false, nil
		case bytes.Equal(b0, dirTTL):
			if len(ts) < 2 {
				return false, fmt.Errorf("$TTL needs a value")
			}
			v, ok := ttlFromTok(sp.tokBytes(ts[1]), ts[1].quoted)
			if !ok {
				_, err := parseTTL(sp.classicTok(ts[1]))
				return false, err
			}
			sp.defTTL = v
			return false, nil
		case bytes.Equal(b0, dirInclude):
			return false, fmt.Errorf("$INCLUDE is not supported")
		}
	}

	// Size the arena so no append during this record's decode can
	// reallocate it (slices taken mid-decode must stay valid): the
	// canonical names are bounded by the record's token bytes plus the
	// origin each (at most three names per record), and the joined
	// hex/base64 source and its decoded form are each bounded by the
	// record's bytes.
	recLen := sp.pos - sp.recStart
	sp.ensureArena(3*(recLen+len(sp.origin)) + 16)
	arenaCap := cap(sp.arena)

	// Owner field: the marker token means repeat the previous owner.
	if t0.isMarker() {
		if len(sp.lastOwner) == 0 {
			return false, fmt.Errorf("record with blank owner before any owner")
		}
		rec.Owner = sp.lastOwner
	} else {
		owner, err := sp.canonName(t0)
		if err != nil {
			return false, err
		}
		rec.Owner = owner
		sp.lastOwner = append(sp.lastOwner[:0], owner...)
	}
	ts = ts[1:]

	// Optional TTL and class, in either order, repeatable.
	ttl := sp.defTTL
	class := dnsmsg.ClassINET
	for len(ts) > 0 {
		b := sp.tokBytes(ts[0])
		if v, ok := ttlFromTok(b, ts[0].quoted); ok {
			ttl = v
			ts = ts[1:]
			continue
		}
		if c, ok := classFromTok(b, ts[0].quoted); ok {
			class = c
			ts = ts[1:]
			continue
		}
		break
	}
	if len(ts) == 0 {
		return false, fmt.Errorf("record for %s missing type", rec.Owner)
	}
	typ, ok := typeFromTok(sp.tokBytes(ts[0]), ts[0].quoted)
	if !ok {
		_, err := dnsmsg.TypeFromString(sp.classicTok(ts[0]))
		return false, err
	}
	rec.Line = sp.recLine
	rec.Type = typ
	rec.Class = class
	rec.TTL = ttl
	if err := sp.decodeRData(rec, typ, ts[1:]); err != nil {
		return false, fmt.Errorf("%s %s: %w", rec.Owner, typ, err)
	}
	if cap(sp.arena) != arenaCap {
		return false, errArenaGrew
	}

	// The reference creates the zone only after rdata decodes, so the
	// "record before any origin" error loses to rdata errors.
	if !sp.zoneSet {
		if sp.origin == "" {
			return false, fmt.Errorf("record before any origin")
		}
		sp.zoneSet, sp.zoneOrig = true, sp.origin
	}
	return true, nil
}

// ensureArena guarantees n spare bytes of arena capacity.
func (sp *StreamParser) ensureArena(n int) {
	if cap(sp.arena)-len(sp.arena) >= n {
		return
	}
	want := 2 * (len(sp.arena) + n)
	grown := make([]byte, len(sp.arena), want)
	copy(grown, sp.arena)
	sp.arena = grown
}

// canonName expands and canonicalizes a name token into the arena,
// replicating the reference's p.name() + dnsmsg.ParseName: @ means the
// origin, a trailing dot is absolute, anything else is joined with the
// origin; the result is ASCII-lowercased and validated against label
// and name length limits with the same error precedence.
func (sp *StreamParser) canonName(t tokRef) ([]byte, error) {
	b := sp.tokBytes(t)
	if t.quoted || !masterFileSafeBytes(b) {
		return nil, fmt.Errorf("name %q contains characters that cannot round-trip a master file", sp.classicTok(t))
	}
	if len(b) == 1 && b[0] == '@' {
		if sp.origin == "" {
			return nil, fmt.Errorf("@ with no origin")
		}
		start := len(sp.arena)
		sp.arena = append(sp.arena, sp.origin...)
		return sp.arena[start:], nil
	}
	start := len(sp.arena)
	absolute := b[len(b)-1] == '.'
	if !absolute && sp.origin == "" {
		return nil, fmt.Errorf("relative name %q with no origin", string(b))
	}
	sp.arena = append(sp.arena, b...)
	if !absolute {
		sp.arena = append(sp.arena, '.')
		if !sp.origin.IsRoot() {
			sp.arena = append(sp.arena, sp.origin...)
		}
	}
	name := sp.arena[start:]
	// ParseName: lowercase A-Z, then validate labels and total length.
	for i, c := range name {
		if c >= 'A' && c <= 'Z' {
			name[i] = c + 'a' - 'A'
		}
	}
	if len(name) == 1 { // name is "." (root): no label validation
		return name, nil
	}
	lab := 0
	for _, c := range name {
		if c != '.' {
			lab++
			continue
		}
		if lab == 0 {
			sp.arena = sp.arena[:start]
			return nil, dnsmsg.ErrBadName
		}
		if lab > dnsmsg.MaxLabelLen {
			sp.arena = sp.arena[:start]
			return nil, dnsmsg.ErrLabelTooLong
		}
		lab = 0
	}
	// name always ends with '.', so every byte is in some dot-terminated
	// label and the wire length is len(name)+1.
	if len(name)+1 > dnsmsg.MaxNameLen {
		sp.arena = sp.arena[:start]
		return nil, dnsmsg.ErrNameTooLong
	}
	return name, nil
}

// RR materializes the record as an independent dnsmsg.RR (allocating;
// the hot ingestion path should consume Rec fields directly).
func (r *Rec) RR() dnsmsg.RR {
	return dnsmsg.RR{
		Name:  dnsmsg.Name(r.Owner),
		Type:  r.Type,
		Class: r.Class,
		TTL:   r.TTL,
		Data:  r.RData(),
	}
}

// RData materializes the record's rdata as the same dnsmsg value the
// reference parser would have produced.
func (r *Rec) RData() dnsmsg.RData {
	switch r.Type {
	case dnsmsg.TypeA:
		return dnsmsg.A{Addr: r.addr}
	case dnsmsg.TypeAAAA:
		return dnsmsg.AAAA{Addr: r.addr}
	case dnsmsg.TypeNS:
		return dnsmsg.NS{Host: dnsmsg.Name(r.name1)}
	case dnsmsg.TypeCNAME:
		return dnsmsg.CNAME{Target: dnsmsg.Name(r.name1)}
	case dnsmsg.TypePTR:
		return dnsmsg.PTR{Target: dnsmsg.Name(r.name1)}
	case dnsmsg.TypeMX:
		return dnsmsg.MX{Preference: r.u16s[0], Host: dnsmsg.Name(r.name1)}
	case dnsmsg.TypeTXT:
		ss := make([]string, len(r.strs))
		for i, s := range r.strs {
			ss[i] = string(s)
		}
		return dnsmsg.TXT{Strings: ss}
	case dnsmsg.TypeSOA:
		return dnsmsg.SOA{MName: dnsmsg.Name(r.name1), RName: dnsmsg.Name(r.name2),
			Serial: r.u32s[0], Refresh: r.u32s[1], Retry: r.u32s[2],
			Expire: r.u32s[3], Minimum: r.u32s[4]}
	case dnsmsg.TypeSRV:
		return dnsmsg.SRV{Priority: r.u16s[0], Weight: r.u16s[1], Port: r.u16s[2],
			Target: dnsmsg.Name(r.name1)}
	case dnsmsg.TypeDS:
		return dnsmsg.DS{KeyTag: r.u16s[0], Algorithm: r.u8s[0], DigestType: r.u8s[1],
			Digest: append([]byte(nil), r.blob...)}
	case dnsmsg.TypeDNSKEY:
		return dnsmsg.DNSKEY{Flags: r.u16s[0], Protocol: r.u8s[0], Algorithm: r.u8s[1],
			PublicKey: append([]byte(nil), r.blob...)}
	case dnsmsg.TypeRRSIG:
		return dnsmsg.RRSIG{TypeCovered: r.cov, Algorithm: r.u8s[0], Labels: r.u8s[1],
			OrigTTL: r.u32s[0], Expiration: r.u32s[1], Inception: r.u32s[2],
			KeyTag: r.u16s[0], SignerName: dnsmsg.Name(r.name1),
			Signature: append([]byte(nil), r.blob...)}
	case dnsmsg.TypeNSEC:
		return dnsmsg.NSEC{NextName: dnsmsg.Name(r.name1),
			Types: append([]dnsmsg.Type(nil), r.types...)}
	default:
		return dnsmsg.Raw{Data: append([]byte(nil), r.blob...)}
	}
}

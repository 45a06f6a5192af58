package dnsmsg

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"strconv"
	"strings"
)

// RData is the type-specific payload of a resource record.
//
// appendRData serializes the rdata (without the RDLENGTH prefix) to buf
// with every embedded name uncompressed, which is also the RFC 4034
// canonical form (names are stored lowercase). Message compression of
// the names in NS, CNAME, PTR, SOA and MX rdata is applied by
// appendRDataCompressed instead.
type RData interface {
	appendRData(buf []byte) ([]byte, error)
	// String returns the presentation (master-file) form of the rdata.
	String() string
}

// ErrShortRData reports rdata that was truncated on the wire.
var ErrShortRData = errors.New("dnsmsg: short rdata")

// RR is a resource record: owner name, type, class, TTL and typed rdata.
type RR struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the RR in master-file form.
func (rr RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", rr.Name, rr.TTL, rr.Class, rr.Type, rr.Data.String())
}

// WireLen returns the uncompressed encoded size of the record.
func (rr RR) WireLen() int {
	b, err := appendRR(nil, rr, nil)
	if err != nil {
		return 0
	}
	return len(b)
}

// A is an IPv4 address record.
type A struct{ Addr netip.Addr }

func (d A) appendRData(buf []byte) ([]byte, error) {
	a := d.Addr.As4()
	return append(buf, a[:]...), nil
}
func (d A) String() string { return d.Addr.String() }

// AAAA is an IPv6 address record.
type AAAA struct{ Addr netip.Addr }

func (d AAAA) appendRData(buf []byte) ([]byte, error) {
	a := d.Addr.As16()
	return append(buf, a[:]...), nil
}
func (d AAAA) String() string { return d.Addr.String() }

// NS names an authoritative nameserver for the owner.
type NS struct{ Host Name }

func (d NS) appendRData(buf []byte) ([]byte, error) {
	return appendName(buf, d.Host, nil)
}
func (d NS) String() string { return string(d.Host) }

// CNAME aliases the owner to another name.
type CNAME struct{ Target Name }

func (d CNAME) appendRData(buf []byte) ([]byte, error) {
	return appendName(buf, d.Target, nil)
}
func (d CNAME) String() string { return string(d.Target) }

// PTR maps an address back to a name.
type PTR struct{ Target Name }

func (d PTR) appendRData(buf []byte) ([]byte, error) {
	return appendName(buf, d.Target, nil)
}
func (d PTR) String() string { return string(d.Target) }

// SOA marks the start of a zone of authority.
type SOA struct {
	MName, RName                            Name
	Serial, Refresh, Retry, Expire, Minimum uint32
}

func (d SOA) appendRData(buf []byte) ([]byte, error) { return d.pack(buf, nil) }

// pack writes the rdata, compressing both names through c if non-nil.
func (d SOA) pack(buf []byte, c *compressor) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, d.MName, c); err != nil {
		return buf, err
	}
	if buf, err = appendName(buf, d.RName, c); err != nil {
		return buf, err
	}
	return binary.BigEndian.AppendUint32(
		binary.BigEndian.AppendUint32(
			binary.BigEndian.AppendUint32(
				binary.BigEndian.AppendUint32(
					binary.BigEndian.AppendUint32(buf, d.Serial),
					d.Refresh), d.Retry), d.Expire), d.Minimum), nil
}
func (d SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d", d.MName, d.RName, d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

// MX is a mail exchanger record.
type MX struct {
	Preference uint16
	Host       Name
}

func (d MX) appendRData(buf []byte) ([]byte, error) { return d.pack(buf, nil) }

// pack writes the rdata, compressing the host through c if non-nil.
func (d MX) pack(buf []byte, c *compressor) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, d.Preference)
	return appendName(buf, d.Host, c)
}
func (d MX) String() string { return fmt.Sprintf("%d %s", d.Preference, d.Host) }

// TXT holds one or more character-strings.
type TXT struct{ Strings []string }

func (d TXT) appendRData(buf []byte) ([]byte, error) {
	for _, s := range d.Strings {
		if len(s) > 255 {
			return buf, fmt.Errorf("dnsmsg: TXT string exceeds 255 bytes")
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}
func (d TXT) String() string {
	parts := make([]string, len(d.Strings))
	for i, s := range d.Strings {
		parts[i] = strconv.Quote(s)
	}
	return strings.Join(parts, " ")
}

// SRV locates a service (RFC 2782).
type SRV struct {
	Priority, Weight, Port uint16
	Target                 Name
}

func (d SRV) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, d.Priority)
	buf = binary.BigEndian.AppendUint16(buf, d.Weight)
	buf = binary.BigEndian.AppendUint16(buf, d.Port)
	return appendName(buf, d.Target, nil) // SRV target is never compressed
}
func (d SRV) String() string {
	return fmt.Sprintf("%d %d %d %s", d.Priority, d.Weight, d.Port, d.Target)
}

// DS is a delegation signer digest (RFC 4034 §5).
type DS struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

func (d DS) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, d.KeyTag)
	buf = append(buf, d.Algorithm, d.DigestType)
	return append(buf, d.Digest...), nil
}
func (d DS) String() string {
	return fmt.Sprintf("%d %d %d %s", d.KeyTag, d.Algorithm, d.DigestType,
		strings.ToUpper(hex.EncodeToString(d.Digest)))
}

// DNSKEY is a zone key (RFC 4034 §2).
type DNSKEY struct {
	Flags     uint16 // 256 = ZSK, 257 = KSK
	Protocol  uint8  // always 3
	Algorithm uint8
	PublicKey []byte
}

func (d DNSKEY) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, d.Flags)
	buf = append(buf, d.Protocol, d.Algorithm)
	return append(buf, d.PublicKey...), nil
}
func (d DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %s", d.Flags, d.Protocol, d.Algorithm,
		base64.StdEncoding.EncodeToString(d.PublicKey))
}

// KeyTag computes the RFC 4034 Appendix B key tag over the DNSKEY rdata.
func (d DNSKEY) KeyTag() uint16 {
	rdata, _ := d.appendRData(nil) //ldp:nolint errcheck — DNSKEY rdata is length-prefixed byte fields; encoding cannot fail
	var ac uint32
	for i, b := range rdata {
		if i&1 == 1 {
			ac += uint32(b)
		} else {
			ac += uint32(b) << 8
		}
	}
	ac += ac >> 16 & 0xFFFF
	return uint16(ac & 0xFFFF)
}

// RRSIG is a resource record signature (RFC 4034 §3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  Name
	Signature   []byte
}

func (d RRSIG) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, uint16(d.TypeCovered))
	buf = append(buf, d.Algorithm, d.Labels)
	buf = binary.BigEndian.AppendUint32(buf, d.OrigTTL)
	buf = binary.BigEndian.AppendUint32(buf, d.Expiration)
	buf = binary.BigEndian.AppendUint32(buf, d.Inception)
	buf = binary.BigEndian.AppendUint16(buf, d.KeyTag)
	var err error
	if buf, err = appendName(buf, d.SignerName, nil); err != nil {
		return buf, err
	}
	return append(buf, d.Signature...), nil
}
func (d RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %s",
		d.TypeCovered, d.Algorithm, d.Labels, d.OrigTTL, d.Expiration,
		d.Inception, d.KeyTag, d.SignerName,
		base64.StdEncoding.EncodeToString(d.Signature))
}

// NSEC denies existence of names and types (RFC 4034 §4).
type NSEC struct {
	NextName Name
	Types    []Type
}

func (d NSEC) appendRData(buf []byte) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, d.NextName, nil); err != nil {
		return buf, err
	}
	return appendTypeBitmap(buf, d.Types), nil
}
func (d NSEC) String() string {
	parts := make([]string, 0, len(d.Types)+1)
	parts = append(parts, string(d.NextName))
	for _, t := range d.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

// appendTypeBitmap encodes the RFC 4034 §4.1.2 windowed type bitmap:
// for each 256-type window holding a type, in ascending order, the
// window number, the bitmap length, and the bitmap up to its last
// nonzero byte. Types may be unsorted and repeated. One pass over the
// types marks the windows present and builds the lowest window's bitmap
// (window 0, the only one most NSEC records have); each further window
// takes one more pass. Nothing is allocated.
func appendTypeBitmap(buf []byte, types []Type) []byte {
	if len(types) == 0 {
		return buf
	}
	var present [4]uint64 // bit w: window w holds a type
	var bm [32]byte       // bitmap of the window being built
	low, n := Type(256), 0
	for _, t := range types {
		w := t >> 8
		present[w>>6] |= 1 << (w & 63)
		if w < low {
			low, bm, n = w, [32]byte{}, 0
		}
		if w == low {
			n = setTypeBit(&bm, n, t)
		}
	}
	buf = append(buf, byte(low), byte(n))
	buf = append(buf, bm[:n]...)
	present[low>>6] &^= 1 << (low & 63)
	for i, word := range present {
		for ; word != 0; word &= word - 1 {
			w := Type(i<<6 | bits.TrailingZeros64(word))
			bm, n = [32]byte{}, 0
			for _, t := range types {
				if t>>8 == w {
					n = setTypeBit(&bm, n, t)
				}
			}
			buf = append(buf, byte(w), byte(n))
			buf = append(buf, bm[:n]...)
		}
	}
	return buf
}

// setTypeBit sets t's bit in its window's bitmap bm, whose used length
// is n, and returns the new used length.
func setTypeBit(bm *[32]byte, n int, t Type) int {
	lo := byte(t)
	bm[lo/8] |= 0x80 >> (lo % 8)
	return max(n, int(lo/8)+1)
}

// OPT is the EDNS0 pseudo-record payload (RFC 6891). The UDP size, DO bit
// and extended rcode live in the RR's Class and TTL fields; Msg handles
// that mapping, so OPT itself carries only options.
type OPT struct {
	Options []EDNSOption
}

// EDNSOption is a single EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

func (d OPT) appendRData(buf []byte) ([]byte, error) {
	for _, o := range d.Options {
		buf = binary.BigEndian.AppendUint16(buf, o.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(o.Data)))
		buf = append(buf, o.Data...)
	}
	return buf, nil
}
func (d OPT) String() string { return fmt.Sprintf("OPT %d options", len(d.Options)) }

// Raw carries rdata of a type this codec does not model (RFC 3597).
type Raw struct{ Data []byte }

func (d Raw) appendRData(buf []byte) ([]byte, error) {
	return append(buf, d.Data...), nil
}
func (d Raw) String() string {
	return fmt.Sprintf("\\# %d %s", len(d.Data), strings.ToUpper(hex.EncodeToString(d.Data)))
}

// appendRR serializes a full RR including owner, fixed header and
// length-prefixed rdata. A nil c writes every name uncompressed, which
// is the RFC 4034 §6 canonical form.
func appendRR(buf []byte, rr RR, c *compressor) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, c); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenOff := len(buf)
	buf = append(buf, 0, 0)
	if rr.Data == nil {
		return buf, fmt.Errorf("dnsmsg: RR %s %s has nil rdata", rr.Name, rr.Type)
	}
	if c != nil {
		buf, err = appendRDataCompressed(buf, rr.Data, c)
	} else {
		buf, err = rr.Data.appendRData(buf)
	}
	if err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return buf, fmt.Errorf("dnsmsg: rdata exceeds 65535 bytes")
	}
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(rdlen))
	return buf, nil
}

// appendRDataCompressed serializes d with message compression applied to
// the names RFC 3597 §4 allows to be compressed: those in NS, CNAME,
// PTR, SOA and MX rdata, in the value form and the pointer form the
// arena decoder produces. Every other type, DNSSEC rdata and the SRV
// target included, is written as appendRData writes it. A type switch
// instead of an RData method keeps c off the heap: Pack holds the table
// on its stack, and passing it through an interface call would make it
// escape.
func appendRDataCompressed(buf []byte, d RData, c *compressor) ([]byte, error) {
	switch d := d.(type) {
	case NS:
		return appendName(buf, d.Host, c)
	case *NS:
		return appendName(buf, d.Host, c)
	case CNAME:
		return appendName(buf, d.Target, c)
	case *CNAME:
		return appendName(buf, d.Target, c)
	case PTR:
		return appendName(buf, d.Target, c)
	case *PTR:
		return appendName(buf, d.Target, c)
	case SOA:
		return d.pack(buf, c)
	case *SOA:
		return d.pack(buf, c)
	case MX:
		return d.pack(buf, c)
	case *MX:
		return d.pack(buf, c)
	}
	return d.appendRData(buf)
}

// unpackRData decodes rdata of the given type from msg[off:off+rdlen].
// msg is the whole message so compression pointers resolve.
func unpackRData(msg []byte, off, rdlen int, typ Type) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, ErrShortRData
	}
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, ErrShortRData
		}
		return A{netip.AddrFrom4([4]byte(msg[off:end]))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, ErrShortRData
		}
		return AAAA{netip.AddrFrom16([16]byte(msg[off:end]))}, nil
	case TypeNS:
		n, _, err := unpackName(msg, off)
		return NS{n}, err
	case TypeCNAME:
		n, _, err := unpackName(msg, off)
		return CNAME{n}, err
	case TypePTR:
		n, _, err := unpackName(msg, off)
		return PTR{n}, err
	case TypeSOA:
		var d SOA
		var err error
		var o int
		if d.MName, o, err = unpackName(msg, off); err != nil {
			return nil, err
		}
		if d.RName, o, err = unpackName(msg, o); err != nil {
			return nil, err
		}
		if o+20 > len(msg) || o+20 > end {
			return nil, ErrShortRData
		}
		d.Serial = binary.BigEndian.Uint32(msg[o:])
		d.Refresh = binary.BigEndian.Uint32(msg[o+4:])
		d.Retry = binary.BigEndian.Uint32(msg[o+8:])
		d.Expire = binary.BigEndian.Uint32(msg[o+12:])
		d.Minimum = binary.BigEndian.Uint32(msg[o+16:])
		return d, nil
	case TypeMX:
		if rdlen < 3 {
			return nil, ErrShortRData
		}
		pref := binary.BigEndian.Uint16(msg[off:])
		n, _, err := unpackName(msg, off+2)
		return MX{pref, n}, err
	case TypeTXT:
		var d TXT
		for o := off; o < end; {
			l := int(msg[o])
			if o+1+l > end {
				return nil, ErrShortRData
			}
			d.Strings = append(d.Strings, string(msg[o+1:o+1+l]))
			o += 1 + l
		}
		return d, nil
	case TypeSRV:
		if rdlen < 7 {
			return nil, ErrShortRData
		}
		var d SRV
		d.Priority = binary.BigEndian.Uint16(msg[off:])
		d.Weight = binary.BigEndian.Uint16(msg[off+2:])
		d.Port = binary.BigEndian.Uint16(msg[off+4:])
		var err error
		d.Target, _, err = unpackName(msg, off+6)
		return d, err
	case TypeDS:
		if rdlen < 4 {
			return nil, ErrShortRData
		}
		return DS{
			KeyTag:     binary.BigEndian.Uint16(msg[off:]),
			Algorithm:  msg[off+2],
			DigestType: msg[off+3],
			Digest:     append([]byte(nil), msg[off+4:end]...),
		}, nil
	case TypeDNSKEY:
		if rdlen < 4 {
			return nil, ErrShortRData
		}
		return DNSKEY{
			Flags:     binary.BigEndian.Uint16(msg[off:]),
			Protocol:  msg[off+2],
			Algorithm: msg[off+3],
			PublicKey: append([]byte(nil), msg[off+4:end]...),
		}, nil
	case TypeRRSIG:
		if rdlen < 18 {
			return nil, ErrShortRData
		}
		var d RRSIG
		d.TypeCovered = Type(binary.BigEndian.Uint16(msg[off:]))
		d.Algorithm = msg[off+2]
		d.Labels = msg[off+3]
		d.OrigTTL = binary.BigEndian.Uint32(msg[off+4:])
		d.Expiration = binary.BigEndian.Uint32(msg[off+8:])
		d.Inception = binary.BigEndian.Uint32(msg[off+12:])
		d.KeyTag = binary.BigEndian.Uint16(msg[off+16:])
		var err error
		var o int
		if d.SignerName, o, err = unpackName(msg, off+18); err != nil {
			return nil, err
		}
		if o > end {
			return nil, ErrShortRData
		}
		d.Signature = append([]byte(nil), msg[o:end]...)
		return d, nil
	case TypeNSEC:
		var d NSEC
		var err error
		var o int
		if d.NextName, o, err = unpackName(msg, off); err != nil {
			return nil, err
		}
		for o < end {
			if o+2 > end {
				return nil, ErrShortRData
			}
			win, l := msg[o], int(msg[o+1])
			if o+2+l > end || l > 32 {
				return nil, ErrShortRData
			}
			for i := 0; i < l; i++ {
				for bit := 0; bit < 8; bit++ {
					if msg[o+2+i]&(0x80>>bit) != 0 {
						d.Types = append(d.Types, Type(uint16(win)<<8|uint16(i*8+bit)))
					}
				}
			}
			o += 2 + l
		}
		return d, nil
	case TypeOPT:
		var d OPT
		for o := off; o < end; {
			if o+4 > end {
				return nil, ErrShortRData
			}
			code := binary.BigEndian.Uint16(msg[o:])
			l := int(binary.BigEndian.Uint16(msg[o+2:]))
			if o+4+l > end {
				return nil, ErrShortRData
			}
			d.Options = append(d.Options, EDNSOption{code, append([]byte(nil), msg[o+4:o+4+l]...)})
			o += 4 + l
		}
		return d, nil
	default:
		return Raw{append([]byte(nil), msg[off:end]...)}, nil
	}
}

package dnsmsg

// The map-based wire encoder this package used before the compressor
// (compress.go) replaced its map[Name]int, and before appendTypeBitmap
// stopped building a map per NSEC record: the executable reference the
// differential fuzzer (FuzzPackDifferential) and the speedup benchmark
// (BenchmarkMsgPackDNSSECReference) hold the production encoder to.
// The function bodies are the original ones; only the names changed,
// and the per-type appendRData methods that took the map are gathered
// into refAppendRData.

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// refPack is Msg.Pack on the reference encoder.
func refPack(m *Msg) ([]byte, error) {
	return refAppendPack(m, make([]byte, 0, 512), make(map[Name]int, 8))
}

// refAppendPack is the map-based Msg.appendPack.
func refAppendPack(m *Msg, buf []byte, cmap map[Name]int) ([]byte, error) {
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.AuthenticData {
		flags |= 1 << 5
	}
	if m.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.Rcode & 0xF)

	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Question)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answer)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))

	var err error
	for _, q := range m.Question {
		if buf, err = refAppendName(buf, q.Name, cmap); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = refAppendRR(buf, rr, cmap, false); err != nil {
				return nil, err
			}
		}
	}
	if len(buf) > MaxMsgSize {
		return nil, ErrMsgTooLarge
	}
	return buf, nil
}

// refAppendName encodes n at the end of buf. When cmap is non-nil it applies
// RFC 1035 message compression: each suffix already emitted at an offset
// < 0x4000 is replaced with a pointer, and new suffixes are recorded.
func refAppendName(buf []byte, n Name, cmap map[Name]int) ([]byte, error) {
	if n == "" {
		n = Root
	}
	rest := n
	for !rest.IsRoot() {
		if cmap != nil {
			if off, ok := cmap[rest]; ok {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if len(buf) < 0x4000 {
				cmap[rest] = len(buf)
			}
		}
		label := string(rest)
		if i := strings.IndexByte(label, '.'); i >= 0 {
			label = label[:i]
		}
		if len(label) > MaxLabelLen {
			return buf, ErrLabelTooLong
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		rest = rest.Parent()
	}
	return append(buf, 0), nil
}

// refAppendRR serializes a full RR including owner, fixed header and
// length-prefixed rdata.
func refAppendRR(buf []byte, rr RR, cmap map[Name]int, canonical bool) ([]byte, error) {
	var err error
	if canonical {
		if buf, err = refAppendName(buf, rr.Name, nil); err != nil {
			return buf, err
		}
	} else if buf, err = refAppendName(buf, rr.Name, cmap); err != nil {
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
	if buf, err = refAppendRData(buf, rr.Data, cmap, canonical); err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return buf, fmt.Errorf("dnsmsg: rdata exceeds 65535 bytes")
	}
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(rdlen))
	return buf, nil
}

// refAppendRData is the original per-type appendRData methods, for the
// value-form rdata the reference decoder (Unpack) produces: names in
// NS, CNAME, PTR, SOA and MX compress unless canonical, NSEC uses the
// map-based type bitmap, and the rdata types without embedded names
// encode as they always did.
func refAppendRData(buf []byte, d RData, cmap map[Name]int, canonical bool) ([]byte, error) {
	if canonical {
		cmap = nil
	}
	var err error
	switch d := d.(type) {
	case NS:
		return refAppendName(buf, d.Host, cmap)
	case CNAME:
		return refAppendName(buf, d.Target, cmap)
	case PTR:
		return refAppendName(buf, d.Target, cmap)
	case SOA:
		if buf, err = refAppendName(buf, d.MName, cmap); err != nil {
			return buf, err
		}
		if buf, err = refAppendName(buf, d.RName, cmap); err != nil {
			return buf, err
		}
		return binary.BigEndian.AppendUint32(
			binary.BigEndian.AppendUint32(
				binary.BigEndian.AppendUint32(
					binary.BigEndian.AppendUint32(
						binary.BigEndian.AppendUint32(buf, d.Serial),
						d.Refresh), d.Retry), d.Expire), d.Minimum), nil
	case MX:
		buf = binary.BigEndian.AppendUint16(buf, d.Preference)
		return refAppendName(buf, d.Host, cmap)
	case SRV:
		buf = binary.BigEndian.AppendUint16(buf, d.Priority)
		buf = binary.BigEndian.AppendUint16(buf, d.Weight)
		buf = binary.BigEndian.AppendUint16(buf, d.Port)
		return refAppendName(buf, d.Target, nil) // SRV target is never compressed
	case RRSIG:
		buf = binary.BigEndian.AppendUint16(buf, uint16(d.TypeCovered))
		buf = append(buf, d.Algorithm, d.Labels)
		buf = binary.BigEndian.AppendUint32(buf, d.OrigTTL)
		buf = binary.BigEndian.AppendUint32(buf, d.Expiration)
		buf = binary.BigEndian.AppendUint32(buf, d.Inception)
		buf = binary.BigEndian.AppendUint16(buf, d.KeyTag)
		if buf, err = refAppendName(buf, d.SignerName, nil); err != nil {
			return buf, err
		}
		return append(buf, d.Signature...), nil
	case NSEC:
		if buf, err = refAppendName(buf, d.NextName, nil); err != nil {
			return buf, err
		}
		return refAppendTypeBitmap(buf, d.Types), nil
	case A, AAAA, TXT, DS, DNSKEY, OPT, Raw:
		return d.appendRData(buf)
	}
	return buf, fmt.Errorf("reference encoder: unexpected rdata %T", d)
}

// refAppendTypeBitmap encodes the RFC 4034 §4.1.2 windowed type bitmap.
func refAppendTypeBitmap(buf []byte, types []Type) []byte {
	if len(types) == 0 {
		return buf
	}
	windows := map[byte][]byte{}
	for _, t := range types {
		w := byte(t >> 8)
		lo := byte(t & 0xFF)
		bm := windows[w]
		need := int(lo/8) + 1
		for len(bm) < need {
			bm = append(bm, 0)
		}
		bm[lo/8] |= 0x80 >> (lo % 8)
		windows[w] = bm
	}
	for w := 0; w < 256; w++ {
		bm, ok := windows[byte(w)]
		if !ok {
			continue
		}
		buf = append(buf, byte(w), byte(len(bm)))
		buf = append(buf, bm...)
	}
	return buf
}

package dnsmsg

import (
	"bytes"
	"errors"
	"strings"
)

// Name is a fully-qualified domain name in presentation form, stored
// lowercase with a trailing dot ("example.com."). The root is ".".
// Using a canonical string form makes names directly usable as map keys
// in the zone tree, the cache, and the split-horizon view table.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Errors returned by name handling.
var (
	ErrNameTooLong  = errors.New("dnsmsg: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnsmsg: label exceeds 63 octets")
	ErrBadName      = errors.New("dnsmsg: malformed domain name")
	errBadPointer   = errors.New("dnsmsg: bad compression pointer")
)

// ParseName canonicalizes a presentation-form name: lowercases it and
// ensures the trailing dot. It rejects empty and oversized names.
func ParseName(s string) (Name, error) {
	if s == "" {
		return "", ErrBadName
	}
	if s == "." {
		return Root, nil
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	s = asciiLower(s)
	// Validate label lengths and total length.
	total := 1 // trailing root byte
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 {
			return "", ErrBadName // empty label ("a..b")
		}
		if l > MaxLabelLen {
			return "", ErrLabelTooLong
		}
		total += l + 1
		start = i + 1
	}
	if total > MaxNameLen {
		return "", ErrNameTooLong
	}
	return Name(s), nil
}

// asciiLower lowercases A-Z only, leaving every other byte intact. DNS
// case-insensitivity covers ASCII letters alone (RFC 4343), and labels
// may carry arbitrary non-UTF-8 bytes that Unicode case mapping would
// silently rewrite to U+FFFD.
func asciiLower(s string) string {
	i := 0
	for ; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// MustParseName is ParseName for constant inputs; it panics on error.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the presentation form.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return n == Root }

// Labels splits the name into labels, excluding the empty root label.
// Labels(".") is nil; Labels("a.b.") is ["a","b"].
func (n Name) Labels() []string {
	if n.IsRoot() || n == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// LabelCount returns the number of labels (root = 0).
func (n Name) LabelCount() int {
	if n.IsRoot() || n == "" {
		return 0
	}
	return strings.Count(string(n), ".")
}

// Parent returns the name with the leftmost label removed; the parent of
// the root is the root.
func (n Name) Parent() Name {
	if n.IsRoot() || n == "" {
		return Root
	}
	i := strings.IndexByte(strings.TrimSuffix(string(n), "."), '.')
	if i < 0 {
		return Root
	}
	return n[i+1:]
}

// IsSubdomainOf reports whether n is equal to or below zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone.IsRoot() {
		return true
	}
	if n == zone {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(zone))
}

// Child returns the label immediately below zone on the path from zone to
// n, as a full name. For n="a.b.example.com." under zone="example.com."
// it returns "b.example.com.". ok is false when n is not strictly below
// zone.
func (n Name) Child(zone Name) (child Name, ok bool) {
	if n == zone || !n.IsSubdomainOf(zone) {
		return "", false
	}
	rest := strings.TrimSuffix(string(n), string(zone))
	if zone.IsRoot() {
		rest = strings.TrimSuffix(string(n), ".")
		rest += "."
	}
	// rest now ends with "."; take its last label.
	rest = strings.TrimSuffix(rest, ".")
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	if zone.IsRoot() {
		return Name(rest + "."), true
	}
	return Name(rest + "." + string(zone)), true
}

// WirelLen returns the encoded length of the name without compression.
func (n Name) WireLen() int {
	if n.IsRoot() {
		return 1
	}
	return len(n) + 1
}

// appendName encodes n at the end of buf. When c is non-nil it applies
// RFC 1035 message compression: each suffix already emitted at an offset
// < 0x4000 is replaced with a pointer, and new suffixes are recorded.
func appendName(buf []byte, n Name, c *compressor) ([]byte, error) {
	if n == "" {
		n = Root
	}
	var h suffixHasher
	if c != nil && !n.IsRoot() {
		h = newSuffixHasher(string(n))
	}
	// rest steps through the suffixes as Name.Parent does: past the next
	// dot, to the root once only the trailing dot is left.
	for rest := string(n); rest != string(Root); {
		if c != nil {
			if off, ok := c.find(rest, h.hash(), len(buf)); ok {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
		}
		label, next := rest, string(Root)
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label = rest[:i]
			if i+1 < len(rest) {
				next = rest[i+1:]
			}
		}
		if len(label) > MaxLabelLen {
			return buf, ErrLabelTooLong
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		if c != nil {
			h.next(label)
		}
		rest = next
	}
	return append(buf, 0), nil
}

// unpackName decodes a possibly-compressed name starting at off in msg.
// It returns the canonical Name and the offset just past the name's
// in-place encoding (pointers are followed but do not advance off past
// the first pointer).
func unpackName(msg []byte, off int) (Name, int, error) {
	var sb strings.Builder
	ptrBudget := 127 // defend against pointer loops
	end := -1        // offset after the name at the original position
	for {
		if off >= len(msg) {
			return "", 0, ErrBadName
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if sb.Len() == 0 {
				return Root, end, nil
			}
			name := asciiLower(sb.String())
			if len(name)+1 > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			return Name(name), end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, errBadPointer
			}
			if ptrBudget--; ptrBudget < 0 {
				return "", 0, errBadPointer
			}
			target := (c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				// Forward (or self) pointers are invalid and would loop.
				return "", 0, errBadPointer
			}
			off = target
		case c&0xC0 != 0:
			return "", 0, ErrBadName // 0x40/0x80 label types are obsolete
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrBadName
			}
			label := msg[off+1 : off+1+c]
			if bytes.IndexByte(label, '.') >= 0 {
				// A dot inside a label cannot round-trip the canonical
				// presentation form this codec keys everything on.
				return "", 0, ErrBadName
			}
			sb.Write(label)
			sb.WriteByte('.')
			off += 1 + c
		}
	}
}

// CanonicalLess compares two names in DNSSEC canonical ordering
// (RFC 4034 §6.1): by reversed label sequence, case-insensitively.
func CanonicalLess(a, b Name) bool {
	al, bl := a.Labels(), b.Labels()
	for i := 1; i <= len(al) && i <= len(bl); i++ {
		x, y := al[len(al)-i], bl[len(bl)-i]
		if x != y {
			return x < y
		}
	}
	return len(al) < len(bl)
}

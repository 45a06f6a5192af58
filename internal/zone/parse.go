package zone

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ldplayer/internal/dnsmsg"
)

// Parse reads a zone in RFC 1035 master-file syntax. Supported:
// $ORIGIN and $TTL directives, @ for the origin, relative names, omitted
// owner (repeat previous), parenthesized record continuation (SOA style),
// ';' comments, quoted TXT strings, and the record types this codec
// models. origin may be "" when the file carries its own $ORIGIN.
//
// Parse is the one zone loader: it streams r through the byte-slice
// tokenizer's window (stream.go), so a file is never held in memory
// whole, and unlike the classic parser kept as its specification
// (reference_test.go) it has no line-length limit.
func Parse(r io.Reader, origin dnsmsg.Name) (*Zone, error) {
	return buildZone(NewStreamParser(r, origin))
}

// buildZone drains a StreamParser into a Zone, replicating the
// reference parser's lazy zone creation and error wrapping.
func buildZone(sp *StreamParser) (*Zone, error) {
	var rec Rec
	var z *Zone
	for {
		err := sp.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if z == nil {
			o, _ := sp.ZoneOrigin()
			z = New(o)
		}
		if err := z.Add(rec.RR()); err != nil {
			return nil, fmt.Errorf("zone parse line %d: %w", rec.Line, err)
		}
	}
	if z == nil {
		if o, ok := sp.ZoneOrigin(); ok {
			z = New(o)
		} else if sp.Origin() == "" {
			return nil, fmt.Errorf("zone parse: empty input and no origin")
		} else {
			z = New(sp.Origin())
		}
	}
	return z, nil
}

// ParseString is Parse over a string, for tests and embedded zones.
func ParseString(s string, origin dnsmsg.Name) (*Zone, error) {
	return Parse(strings.NewReader(s), origin)
}

// parseTTL parses a TTL: plain seconds or BIND unit suffixes (1h30m).
func parseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return uint32(v), nil
	}
	total := uint64(0)
	num := uint64(0)
	seen := false
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
			seen = true
		case c == 's' || c == 'm' || c == 'h' || c == 'd' || c == 'w':
			if !seen {
				return 0, fmt.Errorf("bad TTL %q", s)
			}
			mult := map[rune]uint64{'s': 1, 'm': 60, 'h': 3600, 'd': 86400, 'w': 604800}[c]
			total += num * mult
			num, seen = 0, false
		default:
			return 0, fmt.Errorf("bad TTL %q", s)
		}
	}
	if seen {
		total += num
	}
	if total > 1<<31 {
		return 0, fmt.Errorf("TTL %q overflows", s)
	}
	return uint32(total), nil
}

// WriteTo serializes the zone in master-file form, loadable by Parse.
func (z *Zone) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "$ORIGIN %s\n", z.Origin)
	total += int64(n)
	if err != nil {
		return total, err
	}
	// SOA first: conventional and required by some loaders.
	if soa := z.SOA(); soa != nil {
		for _, rr := range soa.RRs() {
			n, err := fmt.Fprintln(bw, rr.String())
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	for _, rr := range z.AllRRs() {
		if rr.Type == dnsmsg.TypeSOA && rr.Name == z.Origin {
			continue
		}
		n, err := fmt.Fprintln(bw, rr.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

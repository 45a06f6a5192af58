package zone_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zone"
	"ldplayer/internal/zonegen"
)

// goldenZoneText covers the lookup corner cases a store rewrite can get
// wrong: empty non-terminals (b.c, c), a wildcard with two types, a
// "*.x" owner that exists only as an empty non-terminal (because
// a.*.x has data) and so must never match as a wildcard, an owner
// holding nothing but an RRSIG, a CNAME chain (in-zone, out-of-zone and
// into a delegation), and a delegation with glue, DS and occluded data.
const goldenZoneText = `
$ORIGIN hand.test.
$TTL 300
@ IN SOA ns1 admin 1 7200 3600 1209600 60
@ IN NS ns1
@ IN NS ns2.other.test.
@ IN NSEC a.*.x A NS SOA RRSIG NSEC
@ IN RRSIG SOA 8 2 300 1900000000 1400000000 4242 hand.test. c29h
@ IN RRSIG NSEC 8 2 300 1900000000 1400000000 4242 hand.test. bnNlYw==
ns1 IN A 192.0.2.1
ns1 IN AAAA 2001:db8::1
host.a.b.c IN A 192.0.2.2
host.a.b.c IN TXT "deep"
* IN A 192.0.2.99
* IN TXT "wild"
* IN RRSIG A 8 2 300 1900000000 1400000000 4242 hand.test. d2lsZA==
a.*.x IN A 192.0.2.3
*.w IN MX 10 mail
sigonly IN RRSIG A 8 2 300 1900000000 1400000000 4242 hand.test. b25seQ==
c1 IN CNAME c2
c2 IN CNAME c3
c3 IN A 192.0.2.4
c3 IN NSEC ns1 A RRSIG NSEC
c3 IN RRSIG NSEC 8 2 300 1900000000 1400000000 4242 hand.test. YzM=
cext IN CNAME www.elsewhere.test.
cdel IN CNAME host.sub
sub IN NS ns.sub
sub IN NS ns.other.test.
sub IN DS 12345 8 2 ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789
sub IN RRSIG DS 8 2 300 1900000000 1400000000 4242 hand.test. ZHM=
ns.sub IN A 192.0.2.5
ns.sub IN AAAA 2001:db8::5
deep.below.sub IN A 192.0.2.6
nods IN NS ns1
nods IN NSEC ns1 NS RRSIG NSEC
`

// goldenZones builds the zones the golden answer test queries: the
// hand-written corner-case zone plus unsigned and signed generated
// hierarchies (one TLD, so signing seeds do not depend on map order).
func goldenZones(t *testing.T) []*zone.Zone {
	t.Helper()
	hand, err := zone.ParseString(goldenZoneText, "")
	if err != nil {
		t.Fatal(err)
	}
	zones := []*zone.Zone{hand}
	for _, cfg := range []zonegen.Config{
		{TLDs: []string{"com"}, SLDsPerTLD: 3, HostsPerSLD: 3, Wildcard: true, Seed: 5},
		{TLDs: []string{"net"}, SLDsPerTLD: 2, HostsPerSLD: 2, Wildcard: true, Seed: 6, Sign: true},
	} {
		h, err := zonegen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tld := dnsmsg.Name(cfg.TLDs[0] + ".")
		zones = append(zones, h.Zones[dnsmsg.Root], h.Zones[tld])
		for _, sld := range h.SLDs {
			zones = append(zones, h.Zones[sld])
		}
	}
	return zones
}

// goldenQNames lists, for every owner, the owner itself, its parent
// (which reaches the empty non-terminals) and a child that does not
// exist, in a fixed order.
func goldenQNames(z *zone.Zone) []dnsmsg.Name {
	var out []dnsmsg.Name
	for _, n := range z.Names() {
		out = append(out, n, dnsmsg.Name("zz-nx."+string(n)))
		if !n.IsRoot() {
			out = append(out, n.Parent())
		}
	}
	return out
}

// TestGoldenAnswers packs QueryInto's answer for every (name, type, DO)
// combination over the golden zones and compares the SHA-256 of the
// whole stream to the committed testdata/golden_answers.sha256, which
// was recorded before the node table replaced the per-node maps. Any
// change to the answers a zone gives fails it.
func TestGoldenAnswers(t *testing.T) {
	qtypes := []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeNS, dnsmsg.TypeDS, dnsmsg.TypeNSEC, dnsmsg.TypeANY, dnsmsg.TypeCNAME}
	h := sha256.New()
	var a zone.Answer
	var buf []byte
	queries := 0
	for _, z := range goldenZones(t) {
		for _, qn := range goldenQNames(z) {
			for _, qt := range qtypes {
				for _, do := range []bool{false, true} {
					z.QueryInto(&a, qn, qt, do)
					m := &dnsmsg.Msg{Response: true, Authoritative: a.Result != zone.ResultReferral, Rcode: a.Rcode,
						Answer: a.Answer, Authority: a.Authority, Additional: a.Additional}
					m.SetQuestion(qn, qt)
					var err error
					if buf, err = m.AppendPack(buf[:0]); err != nil {
						t.Fatalf("pack %s %s do=%v: %v", qn, qt, do, err)
					}
					var hdr [8]byte
					binary.BigEndian.PutUint32(hdr[:4], uint32(a.Result))
					binary.BigEndian.PutUint32(hdr[4:], uint32(len(buf)))
					h.Write(hdr[:])
					h.Write(buf)
					queries++
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join("testdata", "golden_answers.sha256")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (answers hash %s over %d queries)", err, got, queries)
	}
	if strings.TrimSpace(string(want)) != got {
		t.Fatalf("answers changed: SHA-256 over %d queries is %s, %s has %s", queries, got, path, strings.TrimSpace(string(want)))
	}
}

// TestENTNeverListed: empty non-terminals exist for lookup (NODATA,
// closest encloser) but are never owners, so Names, Cuts and AllRRs
// must not list them and Sets must return nothing for them.
func TestENTNeverListed(t *testing.T) {
	for _, z := range goldenZones(t) {
		owners := map[dnsmsg.Name]bool{}
		for _, n := range z.Names() {
			owners[n] = true
			if len(z.Sets(n)) == 0 && !hasSig(z, n) {
				t.Errorf("zone %s: Names lists %s, which holds no data", z.Origin, n)
			}
		}
		for _, c := range z.Cuts() {
			if !owners[c] {
				t.Errorf("zone %s: Cuts lists %s, which Names does not", z.Origin, c)
			}
		}
		for _, rr := range z.AllRRs() {
			if !owners[rr.Name] {
				t.Errorf("zone %s: AllRRs has a record at %s, which Names does not list", z.Origin, rr.Name)
			}
		}
	}
	z, err := zone.ParseString(goldenZoneText, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range []dnsmsg.Name{"c.hand.test.", "b.c.hand.test.", "a.b.c.hand.test.", "x.hand.test.", "*.x.hand.test."} {
		if z.Sets(ent) != nil {
			t.Errorf("Sets(%s) = %v, want nil for an empty non-terminal", ent, z.Sets(ent))
		}
		if a := z.Query(ent, dnsmsg.TypeA, false); a.Result != zone.ResultNoData {
			t.Errorf("%s A: %v, want nodata (empty non-terminal)", ent, a.Result)
		}
	}
	// *.x exists only as an empty non-terminal: it must not synthesize.
	if a := z.Query("q.x.hand.test.", dnsmsg.TypeA, false); a.Result != zone.ResultNXDomain {
		t.Errorf("q.x A: %v, want nxdomain (*.x holds no data)", a.Result)
	}
}

func hasSig(z *zone.Zone, n dnsmsg.Name) bool {
	for _, rr := range z.AllRRs() {
		if rr.Name == n && rr.Type == dnsmsg.TypeRRSIG {
			return true
		}
	}
	return false
}

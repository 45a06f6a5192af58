package zone

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"ldplayer/internal/dnsmsg"
)

const exampleZone = `
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 admin ( 2024010101 7200
                       3600 1209600 300 )
@   IN NS ns1
@   IN NS ns2
ns1 IN A 192.0.2.53
ns1 IN AAAA 2001:db8::53
ns2 IN A 192.0.2.54
www 300 IN A 192.0.2.80
www IN AAAA 2001:db8::80
web IN CNAME www
txt IN TXT "hello world" "and more"
mail IN MX 10 mx1.example.com.
mx1 IN A 192.0.2.25
; delegation
sub IN NS ns1.sub
ns1.sub IN A 192.0.2.100
deep.under.tree IN A 192.0.2.200
* IN A 192.0.2.99
_sip._tcp IN SRV 0 5 5060 www
`

func mustZone(t testing.TB) *Zone {
	t.Helper()
	z, err := ParseString(exampleZone, "")
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestParseBasics(t *testing.T) {
	z := mustZone(t)
	if z.Origin != "example.com." {
		t.Fatalf("origin=%q", z.Origin)
	}
	soa := z.SOA()
	if soa == nil {
		t.Fatal("no SOA")
	}
	s := soa.Data[0].(dnsmsg.SOA)
	if s.Serial != 2024010101 || s.Minimum != 300 || s.MName != "ns1.example.com." {
		t.Errorf("SOA=%+v", s)
	}
	if set, ok := z.Lookup("www.example.com.", dnsmsg.TypeA); !ok || set.TTL != 300 {
		t.Errorf("www A ttl: %+v ok=%v", set, ok)
	}
	if set, ok := z.Lookup("txt.example.com.", dnsmsg.TypeTXT); !ok {
		t.Error("txt missing")
	} else if txt := set.Data[0].(dnsmsg.TXT); len(txt.Strings) != 2 || txt.Strings[0] != "hello world" {
		t.Errorf("TXT=%+v", txt)
	}
	if err := z.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"out of zone":   "$ORIGIN a.com.\n@ IN SOA n h 1 1 1 1 1\nb.org. IN A 1.2.3.4\n",
		"bad ip":        "$ORIGIN a.com.\n@ IN A 999.2.3.4\n",
		"missing type":  "$ORIGIN a.com.\nfoo IN\n",
		"unbalanced":    "$ORIGIN a.com.\n@ IN SOA n h ( 1 1 1 1 1\n",
		"no origin rel": "foo IN A 1.2.3.4\n",
		"blank first":   "$ORIGIN a.com.\n  IN A 1.2.3.4\n",
		"bad ttl":       "$ORIGIN a.com.\n$TTL zz\n",
	}
	for name, in := range cases {
		if _, err := ParseString(in, ""); err == nil {
			t.Errorf("%s: parse accepted", name)
		}
	}
}

func TestParseTTLUnits(t *testing.T) {
	cases := map[string]uint32{"300": 300, "1h": 3600, "1h30m": 5400, "2d": 172800, "1w": 604800, "90s": 90}
	for in, want := range cases {
		got, err := parseTTL(in)
		if err != nil || got != want {
			t.Errorf("parseTTL(%q)=(%d,%v) want %d", in, got, err, want)
		}
	}
}

func TestBlankOwnerRepeats(t *testing.T) {
	z, err := ParseString("$ORIGIN a.com.\n@ IN SOA n h 1 1 1 1 1\nfoo IN A 1.2.3.4\n    IN AAAA ::1\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := z.Lookup("foo.a.com.", dnsmsg.TypeAAAA); !ok {
		t.Error("blank owner did not repeat previous owner")
	}
}

func TestQueryAnswer(t *testing.T) {
	z := mustZone(t)
	a := z.Query("www.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer || a.Rcode != dnsmsg.RcodeSuccess {
		t.Fatalf("result=%v rcode=%v", a.Result, a.Rcode)
	}
	if len(a.Answer) != 1 || a.Answer[0].Data.(dnsmsg.A).Addr.String() != "192.0.2.80" {
		t.Errorf("answer=%v", a.Answer)
	}
}

func TestQueryNSWithGlue(t *testing.T) {
	z := mustZone(t)
	a := z.Query("example.com.", dnsmsg.TypeNS, false)
	if a.Result != ResultAnswer || len(a.Answer) != 2 {
		t.Fatalf("NS answer=%v", a.Answer)
	}
	if len(a.Additional) != 3 { // ns1 A+AAAA, ns2 A
		t.Errorf("glue=%v", a.Additional)
	}
}

func TestQueryCNAMEChase(t *testing.T) {
	z := mustZone(t)
	a := z.Query("web.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer {
		t.Fatalf("result=%v", a.Result)
	}
	if len(a.Answer) != 2 {
		t.Fatalf("answer=%v", a.Answer)
	}
	if _, ok := a.Answer[0].Data.(dnsmsg.CNAME); !ok {
		t.Error("first answer not CNAME")
	}
	if rr := a.Answer[1]; rr.Name != "www.example.com." || rr.Type != dnsmsg.TypeA {
		t.Errorf("chased answer=%v", rr)
	}
	// Asking for the CNAME itself must not chase.
	a = z.Query("web.example.com.", dnsmsg.TypeCNAME, false)
	if len(a.Answer) != 1 {
		t.Errorf("CNAME query answer=%v", a.Answer)
	}
}

func TestQueryCNAMELoopBounded(t *testing.T) {
	z := New("loop.test.")
	z.Add(dnsmsg.RR{Name: "loop.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "ns.loop.test.", RName: "h.loop.test.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	z.Add(dnsmsg.RR{Name: "a.loop.test.", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.CNAME{Target: "b.loop.test."}})
	z.Add(dnsmsg.RR{Name: "b.loop.test.", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.CNAME{Target: "a.loop.test."}})
	a := z.Query("a.loop.test.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer {
		t.Fatalf("result=%v", a.Result)
	}
	if len(a.Answer) > 2*maxCNAMEChain+2 {
		t.Errorf("CNAME loop not bounded: %d answers", len(a.Answer))
	}
}

func TestQueryReferral(t *testing.T) {
	z := mustZone(t)
	for _, q := range []dnsmsg.Name{"sub.example.com.", "x.sub.example.com.", "a.b.sub.example.com."} {
		a := z.Query(q, dnsmsg.TypeA, false)
		if a.Result != ResultReferral {
			t.Fatalf("%s: result=%v want referral", q, a.Result)
		}
		if a.Rcode != dnsmsg.RcodeSuccess || len(a.Answer) != 0 {
			t.Errorf("%s: rcode=%v answers=%v", q, a.Rcode, a.Answer)
		}
		if len(a.Authority) != 1 || a.Authority[0].Type != dnsmsg.TypeNS {
			t.Errorf("%s: authority=%v", q, a.Authority)
		}
		if len(a.Additional) != 1 { // glue for ns1.sub
			t.Errorf("%s: glue=%v", q, a.Additional)
		}
	}
}

func TestQueryNXDomainAndNoData(t *testing.T) {
	z := mustZone(t)
	// mx1 exists but has no AAAA -> NODATA with SOA.
	a := z.Query("mx1.example.com.", dnsmsg.TypeAAAA, false)
	if a.Result != ResultNoData || a.Rcode != dnsmsg.RcodeSuccess {
		t.Fatalf("nodata: result=%v rcode=%v", a.Result, a.Rcode)
	}
	if len(a.Authority) != 1 || a.Authority[0].Type != dnsmsg.TypeSOA {
		t.Errorf("nodata authority=%v", a.Authority)
	}
	// Wildcard exists at apex level, so most nonexistent names synthesize.
	// A name under an existing leaf does NOT match the apex wildcard
	// (closest encloser is the leaf): mx1 is a leaf.
	a = z.Query("nope.mx1.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultNXDomain || a.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("nxdomain: result=%v rcode=%v", a.Result, a.Rcode)
	}
}

func TestQueryWildcard(t *testing.T) {
	z := mustZone(t)
	a := z.Query("anything.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer {
		t.Fatalf("wildcard result=%v", a.Result)
	}
	if len(a.Answer) != 1 || a.Answer[0].Name != "anything.example.com." {
		t.Errorf("wildcard owner not rewritten: %v", a.Answer)
	}
	// Wildcard NODATA: the wildcard node has A only.
	a = z.Query("anything.example.com.", dnsmsg.TypeMX, false)
	if a.Result != ResultNoData {
		t.Errorf("wildcard nodata result=%v", a.Result)
	}
}

func TestQueryEmptyNonTerminal(t *testing.T) {
	z := mustZone(t)
	// deep.under.tree.example.com exists; under.tree and tree are ENTs.
	a := z.Query("under.tree.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultNoData {
		t.Fatalf("ENT result=%v want nodata", a.Result)
	}
	a = z.Query("tree.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultNoData {
		t.Fatalf("ENT result=%v want nodata", a.Result)
	}
}

func TestQueryANY(t *testing.T) {
	z := mustZone(t)
	a := z.Query("ns1.example.com.", dnsmsg.TypeANY, false)
	if a.Result != ResultAnswer || len(a.Answer) != 2 {
		t.Errorf("ANY: result=%v answer=%v", a.Result, a.Answer)
	}
}

// TestQueryANYDeterministic: an ANY answer lists the owner's rrsets in
// ascending type order, so its wire form (and the answer-cache entry
// built from the first one) does not depend on map iteration order.
func TestQueryANYDeterministic(t *testing.T) {
	const src = `
$ORIGIN any.test.
$TTL 60
@    IN SOA ns admin 1 7200 3600 1209600 300
@    IN NS ns
ns   IN A 192.0.2.53
multi IN A 192.0.2.1
multi IN AAAA 2001:db8::1
multi IN TXT "one"
multi IN MX 10 ns.any.test.
multi IN SRV 0 5 53 ns.any.test.
multi IN NSEC next.any.test. A AAAA TXT MX SRV RRSIG NSEC
`
	var first []byte
	for i := 0; i < 50; i++ {
		z, err := ParseString(src, "")
		if err != nil {
			t.Fatal(err)
		}
		a := z.Query("multi.any.test.", dnsmsg.TypeANY, false)
		if len(a.Answer) != 6 {
			t.Fatalf("ANY answer has %d records, want 6", len(a.Answer))
		}
		for j := 1; j < len(a.Answer); j++ {
			if a.Answer[j-1].Type >= a.Answer[j].Type {
				t.Fatalf("ANY answer not in type order: %v before %v", a.Answer[j-1].Type, a.Answer[j].Type)
			}
		}
		m := dnsmsg.Msg{Response: true, Answer: a.Answer}
		m.Question = []dnsmsg.Question{{Name: "multi.any.test.", Type: dnsmsg.TypeANY, Class: dnsmsg.ClassINET}}
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = wire
		} else if !bytes.Equal(wire, first) {
			t.Fatalf("load %d: ANY response packs differently:\n got %x\nwant %x", i, wire, first)
		}
	}
}

func TestQueryOutOfZone(t *testing.T) {
	z := mustZone(t)
	a := z.Query("example.org.", dnsmsg.TypeA, false)
	if a.Result != ResultNotZone || a.Rcode != dnsmsg.RcodeRefused {
		t.Errorf("out of zone: result=%v rcode=%v", a.Result, a.Rcode)
	}
}

func TestWriteToParseRoundTrip(t *testing.T) {
	z := mustZone(t)
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	z2, err := Parse(&buf, "")
	if err != nil {
		t.Fatalf("reparse: %v\nzone was:\n%s", err, buf.String())
	}
	if z2.RecordCount() != z.RecordCount() {
		t.Errorf("record count %d != %d", z2.RecordCount(), z.RecordCount())
	}
	// Lookups behave identically after the round trip.
	for _, q := range []struct {
		name dnsmsg.Name
		t    dnsmsg.Type
	}{
		{"www.example.com.", dnsmsg.TypeA},
		{"x.sub.example.com.", dnsmsg.TypeA},
		{"anything.example.com.", dnsmsg.TypeA},
	} {
		r1 := z.Query(q.name, q.t, false)
		r2 := z2.Query(q.name, q.t, false)
		if r1.Result != r2.Result || len(r1.Answer) != len(r2.Answer) {
			t.Errorf("%s %s: %v/%d vs %v/%d", q.name, q.t, r1.Result, len(r1.Answer), r2.Result, len(r2.Answer))
		}
	}
}

func TestCuts(t *testing.T) {
	z := mustZone(t)
	cuts := z.Cuts()
	if len(cuts) != 1 || cuts[0] != "sub.example.com." {
		t.Errorf("cuts=%v", cuts)
	}
}

func TestValidateRejectsBadZones(t *testing.T) {
	z := New("bad.test.")
	z.Add(dnsmsg.RR{Name: "bad.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.NS{Host: "ns.bad.test."}})
	if err := z.Validate(); err == nil {
		t.Error("zone without SOA validated")
	}
	z2 := New("bad2.test.")
	z2.Add(dnsmsg.RR{Name: "bad2.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "n.", RName: "h.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	z2.Add(dnsmsg.RR{Name: "bad2.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.NS{Host: "ns.bad2.test."}})
	z2.Add(dnsmsg.RR{Name: "x.bad2.test.", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.CNAME{Target: "y.bad2.test."}})
	z2.Add(dnsmsg.RR{Name: "x.bad2.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.A{Addr: mustAddr("192.0.2.1")}})
	if err := z2.Validate(); err == nil {
		t.Error("CNAME+A at same name validated")
	}
}

func TestAddDuplicateSuppressed(t *testing.T) {
	z := New("d.test.")
	rr := dnsmsg.RR{Name: "a.d.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.A{Addr: mustAddr("192.0.2.1")}}
	z.Add(rr)
	z.Add(rr)
	set, _ := z.Lookup("a.d.test.", dnsmsg.TypeA)
	if len(set.Data) != 1 {
		t.Errorf("duplicate not suppressed: %d", len(set.Data))
	}
}

// TestValidateFirstConflict: Validate reports the first CNAME conflict
// in insertion order, the same one on every load.
func TestValidateFirstConflict(t *testing.T) {
	const text = `$ORIGIN v.test.
@ IN SOA ns admin 1 1 1 1 1
@ IN NS ns
ns IN A 192.0.2.1
m1 IN A 192.0.2.2
m9 IN CNAME a.v.test.
m9 IN CNAME b.v.test.
m5 IN CNAME a.v.test.
m5 IN A 192.0.2.3
m1 IN CNAME a.v.test.
`
	const want = "zone v.test.: multiple CNAMEs at m9.v.test."
	for i := 0; i < 50; i++ {
		z, err := ParseString(text, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Validate(); err == nil || err.Error() != want {
			t.Fatalf("load %d: Validate = %v, want %q", i, err, want)
		}
	}
}

// TestAddDuplicateCheckNoAlloc: the duplicate check encodes rdata into
// the zone's reused scratch buffer, so adding the 13th NS to a set
// allocates at most the append that grows the set.
func TestAddDuplicateCheckNoAlloc(t *testing.T) {
	const runs = 20
	zones := make([]*Zone, runs+1)
	rrs := make([]dnsmsg.RR, runs+1)
	ns := func(i int) dnsmsg.RR {
		return dnsmsg.RR{Name: "d.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.NS{Host: dnsmsg.Name(fmt.Sprintf("ns%d.example.", i))}}
	}
	for i := range zones {
		zones[i] = New("d.test.")
		for j := 0; j < 12; j++ {
			if err := zones[i].Add(ns(j)); err != nil {
				t.Fatal(err)
			}
		}
		rrs[i] = ns(12)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := zones[i].Add(rrs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Errorf("adding the 13th NS allocated %.1f times, want at most 1 (the append)", allocs)
	}
	if set, _ := zones[0].Lookup("d.test.", dnsmsg.TypeNS); len(set.Data) != 13 {
		t.Fatalf("set holds %d records, want 13", len(set.Data))
	}
}

// TestRecordCountMatchesWalk pins the O(1) RecordCount to a full walk
// over the zone's rrsets and signatures, with duplicates that Add
// suppresses and RRSIGs that it keeps.
func TestRecordCountMatchesWalk(t *testing.T) {
	z := mustZone(t)
	rrs := z.AllRRs()
	for _, rr := range rrs { // every record again: all duplicates
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range z.Names() {
		for _, s := range z.Sets(name) {
			sig := dnsmsg.RRSIG{TypeCovered: s.Type, Algorithm: 8, Labels: uint8(name.LabelCount()),
				OrigTTL: s.TTL, KeyTag: uint16(i), SignerName: z.Origin, Signature: []byte{byte(i)}}
			if err := z.Add(dnsmsg.RR{Name: name, Type: dnsmsg.TypeRRSIG, Class: dnsmsg.ClassINET, TTL: s.TTL, Data: sig}); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk := 0
	for _, n := range z.nodes {
		for _, s := range n.sets {
			walk += len(s.Data)
		}
		for _, s := range n.sigs {
			walk += len(s.set.Data)
		}
	}
	if got := z.RecordCount(); got != walk || walk <= len(rrs) {
		t.Fatalf("RecordCount %d, full walk %d (unsigned zone had %d)", got, walk, len(rrs))
	}
	if got := len(z.AllRRs()); got != walk {
		t.Fatalf("AllRRs returns %d records, walk counts %d", got, walk)
	}
}

func TestNamesCanonicalOrder(t *testing.T) {
	z := mustZone(t)
	names := z.Names()
	for i := 0; i+1 < len(names); i++ {
		if !dnsmsg.CanonicalLess(names[i], names[i+1]) {
			t.Errorf("names out of order: %q then %q", names[i], names[i+1])
		}
	}
}

func TestRootOriginZone(t *testing.T) {
	const rootZone = `
$ORIGIN .
$TTL 86400
@ IN SOA a.root-servers.net. nstld.verisign-grs.com. 2024010101 1800 900 604800 86400
@ IN NS a.root-servers.net.
com. IN NS a.gtld-servers.net.
a.gtld-servers.net. IN A 192.5.6.30
a.root-servers.net. IN A 198.41.0.4
`
	z, err := ParseString(rootZone, "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != dnsmsg.Root {
		t.Fatalf("origin=%q", z.Origin)
	}
	a := z.Query("www.google.com.", dnsmsg.TypeA, false)
	if a.Result != ResultReferral {
		t.Fatalf("root referral result=%v", a.Result)
	}
	if a.Authority[0].Name != "com." {
		t.Errorf("referral cut=%v", a.Authority[0])
	}
	if len(a.Additional) != 1 {
		t.Errorf("referral glue=%v", a.Additional)
	}
}

func TestDSAtCutAnsweredByParent(t *testing.T) {
	z := mustZone(t)
	z.Add(dnsmsg.RR{Name: "sub.example.com.", Type: dnsmsg.TypeDS, Class: dnsmsg.ClassINET, TTL: 3600,
		Data: dnsmsg.DS{KeyTag: 1, Algorithm: 8, DigestType: 2, Digest: bytes.Repeat([]byte{1}, 32)}})
	a := z.Query("sub.example.com.", dnsmsg.TypeDS, true)
	if a.Result != ResultAnswer || len(a.Answer) != 1 || a.Answer[0].Type != dnsmsg.TypeDS {
		t.Errorf("DS at cut: result=%v answer=%v", a.Result, a.Answer)
	}
	// But A at the cut still refers.
	a = z.Query("sub.example.com.", dnsmsg.TypeA, true)
	if a.Result != ResultReferral {
		t.Errorf("A at cut: result=%v", a.Result)
	}
	// And the referral now carries DS in authority when DO is set.
	foundDS := false
	for _, rr := range a.Authority {
		if rr.Type == dnsmsg.TypeDS {
			foundDS = true
		}
	}
	if !foundDS {
		t.Error("signed referral missing DS")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

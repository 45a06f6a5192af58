package dnsmsg

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// rootSig is an RRSIG by the root zone's key over (owner, covered), with
// an RSA-2048-sized signature, as the signed root serves them.
func rootSig(owner Name, covered Type, ttl uint32) RR {
	return RR{Name: owner, Type: TypeRRSIG, Class: ClassINET, TTL: ttl, Data: RRSIG{
		TypeCovered: covered, Algorithm: 8, Labels: uint8(owner.LabelCount()),
		OrigTTL: ttl, Expiration: 1700000000, Inception: 1690000000, KeyTag: 46780,
		SignerName: Root, Signature: bytes.Repeat([]byte{0x5a}, 256)}}
}

// signedNXDOMAIN is the root's answer to a DO query for a name under a
// TLD that does not exist: SOA and two NSEC records (one covering the
// name, one the wildcard), each with its RRSIG.
func signedNXDOMAIN() *Msg {
	m := &Msg{ID: 0x4242, Response: true, Authoritative: true, Rcode: RcodeNXDomain}
	m.Question = []Question{{Name: "printer.home.", Type: TypeA, Class: ClassINET}}
	m.Authority = []RR{
		{Name: Root, Type: TypeSOA, Class: ClassINET, TTL: 86400, Data: SOA{
			"a.root-servers.net.", "nstld.verisign-grs.com.", 2024010100, 1800, 900, 604800, 86400}},
		rootSig(Root, TypeSOA, 86400),
		{Name: "homedepot.", Type: TypeNSEC, Class: ClassINET, TTL: 86400, Data: NSEC{
			NextName: "homes.", Types: []Type{TypeNS, TypeDS, TypeRRSIG, TypeNSEC}}},
		rootSig("homedepot.", TypeNSEC, 86400),
		{Name: Root, Type: TypeNSEC, Class: ClassINET, TTL: 86400, Data: NSEC{
			NextName: "aaa.", Types: []Type{TypeNS, TypeSOA, TypeRRSIG, TypeNSEC, TypeDNSKEY}}},
		rootSig(Root, TypeNSEC, 86400),
	}
	m.SetEDNS(1232, true)
	return m
}

// signedReferral is the root's DO referral to com.: thirteen NS records,
// the DS and its RRSIG, and A plus AAAA glue for every server.
func signedReferral() *Msg {
	m := &Msg{ID: 0x4343, Response: true}
	m.Question = []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}}
	var glue []RR
	for i := 0; i < 13; i++ {
		host := Name(fmt.Sprintf("%c.gtld-servers.net.", 'a'+i))
		m.Authority = append(m.Authority, RR{Name: "com.", Type: TypeNS, Class: ClassINET, TTL: 172800, Data: NS{host}})
		glue = append(glue,
			RR{Name: host, Type: TypeA, Class: ClassINET, TTL: 172800,
				Data: A{netip.AddrFrom4([4]byte{192, 5, 6, byte(30 + i)})}},
			RR{Name: host, Type: TypeAAAA, Class: ClassINET, TTL: 172800,
				Data: AAAA{netip.AddrFrom16([16]byte{0x20, 0x01, 0x05, 0x03, 15: byte(30 + i)})}})
	}
	m.Authority = append(m.Authority,
		RR{Name: "com.", Type: TypeDS, Class: ClassINET, TTL: 86400, Data: DS{
			KeyTag: 19718, Algorithm: 13, DigestType: 2, Digest: bytes.Repeat([]byte{0x8a}, 32)}},
		rootSig("com.", TypeDS, 86400))
	m.Additional = glue
	m.SetEDNS(1232, true)
	return m
}

// dnssecMsgs are the messages BenchmarkMsgPackDNSSEC packs.
func dnssecMsgs() []*Msg { return []*Msg{signedNXDOMAIN(), signedReferral()} }

// multiWindowNSEC carries NSEC type lists spanning several windows,
// unsorted and with duplicates.
func multiWindowNSEC() *Msg {
	m := &Msg{Response: true}
	m.Question = []Question{{Name: "w.example.", Type: TypeNSEC, Class: ClassINET}}
	m.Answer = []RR{
		{Name: "w.example.", Type: TypeNSEC, Class: ClassINET, TTL: 60, Data: NSEC{
			NextName: "x.example.",
			Types:    []Type{TypeCAA, TypeA, 65280, TypeNSEC, TypeA, 1024, TypeRRSIG, TypeCAA, 300, 65535, 0}}},
		{Name: "x.example.", Type: TypeNSEC, Class: ClassINET, TTL: 60, Data: NSEC{
			NextName: "y.example.", Types: []Type{513, 512, 258}}},
		{Name: "y.example.", Type: TypeNSEC, Class: ClassINET, TTL: 60, Data: NSEC{NextName: "w.example."}},
	}
	return m
}

// pastPointerRange writes more than 0x4000 bytes of TXT data, then names
// whose suffixes are first written beyond the reach of a 14-bit pointer
// (so may not be pointed to) alongside ones written before it.
func pastPointerRange() *Msg {
	m := &Msg{Response: true}
	m.Question = []Question{{Name: "bulk.example.", Type: TypeTXT, Class: ClassINET}}
	fill := strings.Repeat("a", 255)
	for i := 0; i < 70; i++ {
		m.Answer = append(m.Answer, RR{Name: Name(fmt.Sprintf("t%d.bulk.example.", i%3)),
			Type: TypeTXT, Class: ClassINET, TTL: 60, Data: TXT{[]string{fill}}})
	}
	for i := 0; i < 4; i++ {
		m.Answer = append(m.Answer,
			RR{Name: "late.bulk.example.", Type: TypeNS, Class: ClassINET, TTL: 60,
				Data: NS{Name(fmt.Sprintf("ns%d.late.bulk.example.", i%2))}},
			RR{Name: "t1.bulk.example.", Type: TypeCNAME, Class: ClassINET, TTL: 60,
				Data: CNAME{"x.far.example."}})
	}
	return m
}

// mixedCase has owners and rdata names differing only in ASCII case,
// which compression must treat as different names.
func mixedCase() *Msg {
	m := &Msg{Response: true}
	m.Question = []Question{{Name: "WWW.Example.COM.", Type: TypeA, Class: ClassINET}}
	m.Answer = []RR{
		{Name: "www.example.com.", Type: TypeCNAME, Class: ClassINET, TTL: 60, Data: CNAME{"Web.EXAMPLE.com."}},
		{Name: "Web.EXAMPLE.com.", Type: TypeA, Class: ClassINET, TTL: 60, Data: A{mustAddr("192.0.2.1")}},
		{Name: "web.example.COM.", Type: TypeMX, Class: ClassINET, TTL: 60, Data: MX{10, "MAIL.example.com."}},
	}
	return m
}

// oddNames are Names outside ParseName's canonical form, which the
// encoder still accepts: no trailing dot, empty labels, a double dot.
func oddNames() *Msg {
	m := &Msg{Response: true}
	m.Question = []Question{{Name: "foo", Type: TypeA, Class: ClassINET}}
	for _, n := range []Name{"foo.", "a.foo", "a.foo.", "b..foo.", "a..", "..", "", ".", "x.a..", "foo"} {
		m.Answer = append(m.Answer, RR{Name: n, Type: TypePTR, Class: ClassINET, TTL: 1, Data: PTR{"a.foo."}})
	}
	return m
}

// manyNames has more distinct suffixes than the tables Pack and
// PackBuffer start with, so both must grow mid-message.
func manyNames() *Msg {
	m := &Msg{Response: true}
	m.Question = []Question{{Name: "zone.example.", Type: TypeNS, Class: ClassINET}}
	for i := 0; i < 300; i++ {
		m.Authority = append(m.Authority, RR{Name: Name(fmt.Sprintf("d%d.zone.example.", i%150)),
			Type: TypeNS, Class: ClassINET, TTL: 60, Data: NS{Name(fmt.Sprintf("ns.h%d.example.", i))}})
	}
	return m
}

// packCorpus is every message the encoder is held to the reference on.
func packCorpus() []*Msg {
	return append(dnssecMsgs(), sampleMsg(), multiWindowNSEC(), pastPointerRange(), mixedCase(), oddNames(), manyNames())
}

// TestPackMatchesReference holds Pack, AppendPack and PackBuffer (one
// arena reused across messages of very different sizes) to the
// map-based reference encoder, byte for byte.
func TestPackMatchesReference(t *testing.T) {
	var reused Msg
	for i, m := range packCorpus() {
		want, err := refPack(m)
		if err != nil {
			t.Fatalf("msg %d: reference: %v", i, err)
		}
		got, err := m.Pack()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("msg %d: Pack differs (err %v):\n got %x\nwant %x", i, err, got, want)
		}
		ar := reused.ar
		reused = *m
		reused.ar = ar
		for pass := 0; pass < 2; pass++ {
			got, err = reused.PackBuffer(nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("msg %d pass %d: PackBuffer differs (err %v):\n got %x\nwant %x", i, pass, err, got, want)
			}
		}
	}
	if len(reused.ar.cmp.slots) <= 16 {
		t.Errorf("the large message did not grow the arena table (%d slots)", len(reused.ar.cmp.slots))
	}
}

// TestPackPointerReach checks pastPointerRange does what it is for: a
// pointer never targets 0x4000 or beyond, and suffixes first written
// past it are written again in full.
func TestPackPointerReach(t *testing.T) {
	wire, err := pastPointerRange().Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < 0x4000+100 {
		t.Fatalf("message is %d bytes; it must run past 0x4000", len(wire))
	}
	if n := bytes.Count(wire, []byte("\x04late\xc0")); n < 2 {
		t.Errorf("late.bulk.example. written in full %d times; a suffix past 0x4000 must not be pointed to", n)
	}
	var m Msg
	if err := m.Unpack(wire); err != nil {
		t.Fatalf("packed message does not decode: %v", err)
	}
}

// TestTypeBitmapMatchesReference covers the type bitmap on its own:
// empty lists, every window boundary, and unsorted, repeated types.
func TestTypeBitmapMatchesReference(t *testing.T) {
	lists := [][]Type{
		nil,
		{TypeA},
		{0},
		{255, 256, 511, 512},
		{65535, 0, 65535, 0},
		{TypeCAA, TypeA, 65280, TypeNSEC, TypeA, 1024, TypeRRSIG, TypeCAA},
	}
	all := make([]Type, 0, 1<<16)
	for t := 65535; t >= 0; t -= 7 {
		all = append(all, Type(t))
	}
	lists = append(lists, all)
	for _, types := range lists {
		got := appendTypeBitmap([]byte{0xEE}, types)
		want := refAppendTypeBitmap([]byte{0xEE}, types)
		if !bytes.Equal(got, want) {
			t.Errorf("types %v:\n got %x\nwant %x", types, got, want)
		}
	}
}

// TestEncodeNoAlloc: the type bitmap encoder allocates nothing, and
// neither do AppendPack (its compression table on the stack) and
// PackBuffer (its table in the arena) when the output buffer is big
// enough.
func TestEncodeNoAlloc(t *testing.T) {
	types := []Type{TypeCAA, TypeA, TypeNS, TypeRRSIG, TypeNSEC, 65280}
	buf := make([]byte, 0, MaxMsgSize)
	if n := testing.AllocsPerRun(100, func() { appendTypeBitmap(buf[:0], types) }); n != 0 {
		t.Errorf("appendTypeBitmap allocates %.1f times per call", n)
	}
	for i, m := range append(dnssecMsgs(), sampleMsg()) {
		if n := testing.AllocsPerRun(100, func() { m.AppendPack(buf[:0]) }); n != 0 {
			t.Errorf("msg %d: AppendPack allocates %.1f times per call", i, n)
		}
		if n := testing.AllocsPerRun(100, func() { m.PackBuffer(buf[:0]) }); n != 0 {
			t.Errorf("msg %d: PackBuffer allocates %.1f times per call", i, n)
		}
	}
}

// upcaseOwners ASCII-uppercases the question and owner names whose
// position (questions first, then the three sections in order; modulo
// 64) has its bit set in mask.
func upcaseOwners(m *Msg, mask uint64) {
	i := 0
	up := func(n Name) Name {
		defer func() { i++ }()
		if mask&(1<<(i%64)) == 0 {
			return n
		}
		return Name(strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r - 'a' + 'A'
			}
			return r
		}, string(n)))
	}
	for j := range m.Question {
		m.Question[j].Name = up(m.Question[j].Name)
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for j := range sec {
			sec[j].Name = up(sec[j].Name)
		}
	}
}

// FuzzPackDifferential holds the encoder to the map-based reference:
// every message that decodes from the input, with the owners the case
// mask selects uppercased, must pack to the same bytes (compression
// pointers included) or fail with the same error, through Pack and
// through PackBuffer on the arena decoder's form of the message.
func FuzzPackDifferential(f *testing.F) {
	for _, m := range packCorpus() {
		if wire, err := refPack(m); err == nil {
			f.Add(wire, uint64(0))
		}
	}
	for _, seed := range fuzzSeedMsgs(f) {
		f.Add(seed, uint64(0b10110))
	}
	f.Fuzz(func(t *testing.T, data []byte, upper uint64) {
		var m Msg
		if err := m.Unpack(data); err != nil {
			return
		}
		upcaseOwners(&m, upper)
		want, wantErr := refPack(&m)
		same := func(how string, got []byte, err error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v\ninput: %x", how, err, wantErr, data)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from the reference:\n got %x\nwant %x\ninput: %x", how, got, want, data)
			}
		}
		got, err := m.Pack()
		same("Pack", got, err)

		p := GetMsg()
		defer PutMsg(p)
		if err := p.UnpackBuffer(data); err != nil {
			t.Fatalf("arena decoder rejects what Unpack accepts: %v", err)
		}
		upcaseOwners(p, upper)
		got, err = p.PackBuffer(make([]byte, 0, 512))
		same("PackBuffer", got, err)
	})
}

// BenchmarkMsgPackDNSSEC packs the signed NXDOMAIN and the signed
// referral through PackBuffer into a reused buffer: the server's
// answer-cache miss path on a DNSSEC-signed zone.
func BenchmarkMsgPackDNSSEC(b *testing.B) {
	msgs := dnssecMsgs()
	for _, m := range msgs {
		m.ar = &arena{}
	}
	out := make([]byte, 0, MaxUDPSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			var err error
			if out, err = m.PackBuffer(out[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*len(msgs))/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkMsgPackDNSSECReference packs the same messages through the
// map-based reference encoder the way PackBuffer used to: one map per
// message, cleared between packs, and a reused buffer.
func BenchmarkMsgPackDNSSECReference(b *testing.B) {
	msgs := dnssecMsgs()
	cmaps := make([]map[Name]int, len(msgs))
	for i := range cmaps {
		cmaps[i] = make(map[Name]int, 8)
	}
	out := make([]byte, 0, MaxUDPSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range msgs {
			clear(cmaps[j])
			var err error
			if out, err = refAppendPack(m, out[:0], cmaps[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*len(msgs))/b.Elapsed().Seconds(), "msgs/s")
}

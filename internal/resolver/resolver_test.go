package resolver

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/vnet"
	"ldplayer/internal/zone"
)

// testHierarchy wires three authoritative zones (root, com, example.com)
// to distinct server addresses, exactly the multi-level shape the
// resolver walks in production.
type testHierarchy struct {
	servers   map[netip.AddrPort]*server.Server
	exchanges atomic.Int64
}

var (
	rootAddr = netip.MustParseAddrPort("198.41.0.4:53")
	comAddr  = netip.MustParseAddrPort("192.5.6.30:53")
	exAddr   = netip.MustParseAddrPort("192.0.2.53:53")
)

const rootZoneText = `
$ORIGIN .
$TTL 86400
@ IN SOA a.root-servers.net. nstld. 1 1800 900 604800 86400
@ IN NS a.root-servers.net.
a.root-servers.net. IN A 198.41.0.4
com. IN NS a.gtld-servers.net.
a.gtld-servers.net. IN A 192.5.6.30
`

const comZoneText = `
$ORIGIN com.
$TTL 172800
@ IN SOA a.gtld-servers.net. nstld. 1 1800 900 604800 86400
@ IN NS a.gtld-servers.net.
example IN NS ns1.example.com.
ns1.example.com. IN A 192.0.2.53
glueless IN NS www.example.com.
`

const exZoneText = `
$ORIGIN example.com.
$TTL 300
@ IN SOA ns1 admin 1 7200 3600 1209600 60
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.80
alias IN CNAME www
`

func newHierarchy(t testing.TB) *testHierarchy {
	t.Helper()
	h := &testHierarchy{servers: make(map[netip.AddrPort]*server.Server)}
	for addr, text := range map[netip.AddrPort]string{
		rootAddr: rootZoneText,
		comAddr:  comZoneText,
		exAddr:   exZoneText,
	} {
		z, err := zone.ParseString(text, "")
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{})
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
		h.servers[addr] = s
	}
	return h
}

func (h *testHierarchy) Exchange(_ context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
	h.exchanges.Add(1)
	s, ok := h.servers[srv]
	if !ok {
		return nil, errors.New("no route to server")
	}
	return s.HandleQuery(srv.Addr(), q, 0), nil
}

func newResolver(t testing.TB, h *testHierarchy, tap Tap) *Resolver {
	t.Helper()
	r, err := New(Config{
		Roots:    []netip.AddrPort{rootAddr},
		Exchange: h,
		EDNSSize: 4096,
		Tap:      tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIterativeResolution(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	m, err := r.Resolve(context.Background(), "www.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) != 1 {
		t.Fatalf("answer=%+v", m)
	}
	if a := m.Answer[0].Data.(dnsmsg.A); a.Addr.String() != "192.0.2.80" {
		t.Errorf("addr=%v", a.Addr)
	}
	// Cold-cache walk: root referral + com referral + final answer.
	if n := h.exchanges.Load(); n != 3 {
		t.Errorf("exchanges=%d want 3", n)
	}
}

func TestCachingCutsUpstream(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	before := h.exchanges.Load()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() != before {
		t.Error("cached answer still hit upstream")
	}
	// Flushing the cache forces a fresh walk — the paper's cold-cache mode.
	r.Cache().Flush()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() == before {
		t.Error("flush did not force re-resolution")
	}
}

func TestCNAMEChase(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	m, err := r.Resolve(context.Background(), "alias.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	var hasCNAME, hasA bool
	for _, rr := range m.Answer {
		switch rr.Type {
		case dnsmsg.TypeCNAME:
			hasCNAME = true
		case dnsmsg.TypeA:
			hasA = true
		}
	}
	if !hasCNAME || !hasA {
		t.Errorf("CNAME chain incomplete: %+v", m.Answer)
	}
}

func TestNXDomain(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	m, err := r.Resolve(context.Background(), "nope.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("rcode=%v", m.Rcode)
	}
}

func TestGluelessDelegation(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	// glueless.com delegates to ns1.example.com with no glue in the com
	// zone response: the resolver must resolve the NS name itself before
	// it can contact the delegated server. That server is not
	// authoritative for glueless.com, so the walk ends in REFUSED — but
	// the side resolution of ns1.example.com must have happened, which
	// takes strictly more exchanges than a direct glued walk (3).
	_, err := r.Resolve(context.Background(), "anything.glueless.com.", dnsmsg.TypeA)
	if err == nil {
		t.Fatal("want failure: the glue-less target has no server")
	}
	if n := h.exchanges.Load(); n <= 3 {
		t.Errorf("exchanges=%d: glue-less NS resolution did not happen", n)
	}
}

func TestTapSeesAllExchanges(t *testing.T) {
	h := newHierarchy(t)
	var taps []netip.AddrPort
	r := newResolver(t, h, func(srv netip.AddrPort, q, resp *dnsmsg.Msg) {
		taps = append(taps, srv)
	})
	if _, err := r.Resolve(context.Background(), "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if len(taps) != 3 || taps[0] != rootAddr || taps[1] != comAddr || taps[2] != exAddr {
		t.Errorf("tap sequence=%v", taps)
	}
}

func TestResolverConfigValidation(t *testing.T) {
	if _, err := New(Config{Exchange: ExchangeFunc(nil)}); !errors.Is(err, ErrNoRoots) {
		t.Errorf("want ErrNoRoots, got %v", err)
	}
	if _, err := New(Config{Roots: []netip.AddrPort{rootAddr}}); err == nil {
		t.Error("nil exchanger accepted")
	}
}

func TestReferralLoopDetected(t *testing.T) {
	// A zone that delegates to itself forever.
	loopAddr := netip.MustParseAddrPort("203.0.113.1:53")
	ex := ExchangeFunc(func(_ context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
		var m dnsmsg.Msg
		m.SetReply(q)
		m.Authority = []dnsmsg.RR{{Name: "loop.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.NS{Host: "ns.loop.test."}}}
		m.Additional = []dnsmsg.RR{{Name: "ns.loop.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.A{Addr: loopAddr.Addr()}}}
		return &m, nil
	})
	r, err := New(Config{Roots: []netip.AddrPort{loopAddr}, Exchange: ex})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "x.loop.test.", dnsmsg.TypeA); !errors.Is(err, ErrLoop) {
		t.Errorf("want ErrLoop, got %v", err)
	}
}

func TestAllServersFailing(t *testing.T) {
	ex := ExchangeFunc(func(_ context.Context, _ netip.AddrPort, _ *dnsmsg.Msg) (*dnsmsg.Msg, error) {
		return nil, errors.New("network unreachable")
	})
	r, err := New(Config{Roots: []netip.AddrPort{rootAddr}, Exchange: ex})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "x.test.", dnsmsg.TypeA); err == nil {
		t.Error("resolution succeeded with dead upstreams")
	}
}

func TestNegativeCaching(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	// First NXDOMAIN walks the hierarchy.
	if m, err := r.Resolve(ctx, "missing.example.com.", dnsmsg.TypeA); err != nil || m.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("m=%v err=%v", m, err)
	}
	before := h.exchanges.Load()
	// Second identical query must come from the negative cache (RFC 2308).
	m, err := r.Resolve(ctx, "missing.example.com.", dnsmsg.TypeA)
	if err != nil || m.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("cached m=%v err=%v", m, err)
	}
	if h.exchanges.Load() != before {
		t.Error("negative answer not cached")
	}
	// The cached negative carries the SOA in authority.
	foundSOA := false
	for _, rr := range m.Authority {
		if rr.Type == dnsmsg.TypeSOA {
			foundSOA = true
		}
	}
	if !foundSOA {
		t.Error("cached NXDOMAIN lost its SOA")
	}
}

func TestNoDataCaching(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	// www.example.com has A but no MX: NODATA.
	if m, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeMX); err != nil || m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) != 0 {
		t.Fatalf("m=%+v err=%v", m, err)
	}
	before := h.exchanges.Load()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeMX); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() != before {
		t.Error("NODATA not cached")
	}
	// Different qtype for the same name is a different cache key and DOES
	// go upstream (the com/example referrals are not re-fetched from
	// cache in this resolver, so some exchanges happen).
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeAAAA); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() == before {
		t.Error("distinct qtype served from the wrong cache entry")
	}
}

// TestMutualGluelessDelegationBounded is the regression test for
// unbounded recursion: a.com's only nameserver is ns.b.com and b.com's
// is ns.a.com, neither with glue, so resolving either nameserver name
// needs the other first. Over the vnet fabric the resolver must give up
// with ErrLoop after a bounded number of upstream queries, counted by
// resolver.upstream.queries.
func TestMutualGluelessDelegationBounded(t *testing.T) {
	const comText = `
$ORIGIN com.
$TTL 172800
@ IN SOA a.gtld-servers.net. nstld. 1 1800 900 604800 86400
@ IN NS a.gtld-servers.net.
a IN NS ns.b.com.
b IN NS ns.a.com.
`
	net := vnet.New()
	for addr, text := range map[netip.AddrPort]string{rootAddr: rootZoneText, comAddr: comText} {
		z, err := zone.ParseString(text, "")
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{})
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
		net.Attach(addr.Addr(), func(pkt vnet.Packet) {
			var q dnsmsg.Msg
			if err := q.Unpack(pkt.Payload); err != nil {
				return
			}
			wire, err := s.HandleQuery(pkt.Src.Addr(), &q, 0).Pack()
			if err != nil {
				return
			}
			_ = net.Send(vnet.Packet{Src: pkt.Dst, Dst: pkt.Src, Payload: wire}) //ldp:nolint errcheck — an undeliverable reply is a lost packet
		})
	}
	host := transport.NewVNetHost(net, netip.MustParseAddr("10.0.0.53"))
	defer host.Close()
	r, err := New(Config{
		Roots:    []netip.AddrPort{rootAddr},
		Exchange: &transport.Exchanger{Dialer: host, DisableTCPFallback: true},
		EDNSSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := obsUpstreamQueries.Value()
	_, err = r.Resolve(ctx, "www.a.com.", dnsmsg.TypeA)
	queries := obsUpstreamQueries.Value() - before
	if !errors.Is(err, ErrLoop) {
		t.Errorf("Resolve = %v, want ErrLoop", err)
	}
	if queries > maxQueriesPerResolution {
		t.Errorf("%d upstream queries, budget is %d", queries, maxQueriesPerResolution)
	}
	t.Logf("gave up after %d upstream queries", queries)
}

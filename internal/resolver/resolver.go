// Package resolver implements an iterative (recursive-resolving) DNS
// server engine: it walks the hierarchy from the root hints, follows
// referrals and CNAMEs, caches with TTLs, and can tap its upstream
// traffic so the zone constructor can rebuild zones from what a cold
// cache walk touches — exactly the paper's §2.3 construction procedure.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"ldplayer/internal/cache"
	"ldplayer/internal/dnsmsg"
)

// Exchanger sends one query to one authoritative server and returns its
// response. Implementations exist over real UDP sockets, the in-process
// virtual network (through the proxies), and the discrete-event
// simulator.
type Exchanger interface {
	Exchange(ctx context.Context, server netip.AddrPort, query *dnsmsg.Msg) (*dnsmsg.Msg, error)
}

// ExchangeFunc adapts a function to Exchanger.
type ExchangeFunc func(ctx context.Context, server netip.AddrPort, query *dnsmsg.Msg) (*dnsmsg.Msg, error)

// Exchange implements Exchanger.
func (f ExchangeFunc) Exchange(ctx context.Context, server netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
	return f(ctx, server, q)
}

// Tap observes every upstream exchange the resolver performs.
type Tap func(server netip.AddrPort, query, response *dnsmsg.Msg)

// Config parameterizes a Resolver.
type Config struct {
	// Roots are the root server addresses (hints). Required.
	Roots []netip.AddrPort
	// Exchange performs upstream queries. Required.
	Exchange Exchanger
	// Cache holds responses between queries; nil creates a default cache.
	Cache *cache.Cache
	// EDNSSize advertised upstream; 0 disables EDNS.
	EDNSSize uint16
	// DO sets the DNSSEC-OK bit on upstream queries.
	DO bool
	// MaxReferrals bounds hierarchy depth per query (default 16).
	MaxReferrals int
	// MaxCNAME bounds alias chains per query (default 8).
	MaxCNAME int
	// Tap, when set, sees every upstream exchange.
	Tap Tap
}

// Per-resolution work limits, BIND's max-recursion-queries and
// max-recursion-depth defaults. They bound what one client query can
// cost however the delegations upstream are (mis)configured: two zones
// whose glue-less nameservers live in each other would otherwise
// recurse without end.
const (
	maxQueriesPerResolution = 100 // upstream queries, sub-resolutions included
	maxSubResolutionDepth   = 7   // nesting of glue-less nameserver lookups
)

// budget is one client resolution's allowance, shared by every
// sub-resolution it starts (CNAME targets, glue-less nameserver names).
type budget struct {
	queries int // upstream queries left
	depth   int // glue-less nameserver lookups currently nested
}

// Resolver performs iterative resolution.
type Resolver struct {
	cfg   Config
	cache *cache.Cache
}

// Errors the resolver reports.
var (
	ErrNoRoots      = errors.New("resolver: no root hints")
	ErrLoop         = errors.New("resolver: referral loop or work budget exceeded")
	ErrLame         = errors.New("resolver: lame delegation (no usable nameservers)")
	ErrCNAMEChain   = errors.New("resolver: CNAME chain too long")
	ErrUpstreamFail = errors.New("resolver: all upstream servers failed")
)

// New creates a resolver from cfg.
func New(cfg Config) (*Resolver, error) {
	if len(cfg.Roots) == 0 {
		return nil, ErrNoRoots
	}
	if cfg.Exchange == nil {
		return nil, errors.New("resolver: no exchanger")
	}
	if cfg.MaxReferrals == 0 {
		cfg.MaxReferrals = 16
	}
	if cfg.MaxCNAME == 0 {
		cfg.MaxCNAME = 8
	}
	c := cfg.Cache
	if c == nil {
		c = cache.New(0)
	}
	return &Resolver{cfg: cfg, cache: c}, nil
}

// Cache exposes the resolver's cache (experiments flush it between runs).
func (r *Resolver) Cache() *cache.Cache { return r.cache }

// Resolve answers (qname, qtype) by cache or by walking the hierarchy.
// The returned message has Rcode and sections filled; the caller stamps
// ID and header bits for its client. A resolution that would exceed its
// work budget fails with ErrLoop.
func (r *Resolver) Resolve(ctx context.Context, qname dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Msg, error) {
	return r.resolve(ctx, qname, qtype, 0, &budget{queries: maxQueriesPerResolution})
}

func (r *Resolver) resolve(ctx context.Context, qname dnsmsg.Name, qtype dnsmsg.Type, cnameDepth int, b *budget) (*dnsmsg.Msg, error) {
	if cnameDepth > r.cfg.MaxCNAME {
		return nil, ErrCNAMEChain
	}
	key := cache.Key{Name: qname, Type: qtype}
	if e, left := r.cache.Get(key); e != nil {
		obsCacheHits.Inc()
		adj := cache.EntryWithAdjustedTTL(e, left)
		m := &dnsmsg.Msg{Rcode: adj.Rcode, Answer: adj.Answer, Authority: adj.Authority}
		return r.chaseCNAME(ctx, m, qname, qtype, cnameDepth, b)
	}
	obsCacheMisses.Inc()

	servers := append([]netip.AddrPort(nil), r.cfg.Roots...)
	seenZones := map[string]bool{}
	for depth := 0; depth < r.cfg.MaxReferrals; depth++ {
		resp, err := r.queryAny(ctx, servers, qname, qtype, b)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Rcode == dnsmsg.RcodeNXDomain,
			resp.Rcode == dnsmsg.RcodeSuccess && (len(resp.Answer) > 0 || !hasReferral(resp)):
			// Terminal: answer, NXDOMAIN, or NODATA.
			r.store(key, resp)
			return r.chaseCNAME(ctx, resp, qname, qtype, cnameDepth, b)
		case hasReferral(resp):
			zoneName, next, err := r.followReferral(ctx, resp, b)
			if err != nil {
				return nil, err
			}
			if seenZones[string(zoneName)] {
				return nil, ErrLoop
			}
			seenZones[string(zoneName)] = true
			servers = next
		default:
			return nil, fmt.Errorf("%w: rcode %s", ErrUpstreamFail, resp.Rcode)
		}
	}
	return nil, ErrLoop
}

// chaseCNAME restarts resolution at an alias target when the answer ends
// in a CNAME without covering qtype.
func (r *Resolver) chaseCNAME(ctx context.Context, m *dnsmsg.Msg, qname dnsmsg.Name, qtype dnsmsg.Type, depth int, b *budget) (*dnsmsg.Msg, error) {
	if qtype == dnsmsg.TypeCNAME || len(m.Answer) == 0 {
		return m, nil
	}
	last := m.Answer[len(m.Answer)-1]
	cn, ok := last.Data.(dnsmsg.CNAME)
	if !ok || last.Type != dnsmsg.TypeCNAME {
		return m, nil
	}
	// The answer may already include the target (in-zone chase by the
	// authoritative side).
	for _, rr := range m.Answer {
		if rr.Name == cn.Target && rr.Type == qtype {
			return m, nil
		}
	}
	sub, err := r.resolve(ctx, cn.Target, qtype, depth+1, b)
	if err != nil {
		return m, nil // serve the partial chain; clients retry the target
	}
	out := m.Copy()
	out.Answer = append(out.Answer, sub.Answer...)
	out.Rcode = sub.Rcode
	return out, nil
}

// followReferral extracts the delegated zone and nameserver addresses
// from a referral, resolving glue-less NS names as needed. Those
// lookups spend the caller's budget and nest at most
// maxSubResolutionDepth deep.
func (r *Resolver) followReferral(ctx context.Context, resp *dnsmsg.Msg, b *budget) (dnsmsg.Name, []netip.AddrPort, error) {
	var zoneName dnsmsg.Name
	var nsNames []dnsmsg.Name
	for _, rr := range resp.Authority {
		if rr.Type == dnsmsg.TypeNS {
			zoneName = rr.Name
			nsNames = append(nsNames, rr.Data.(dnsmsg.NS).Host)
		}
	}
	var addrs []netip.AddrPort
	for _, rr := range resp.Additional {
		switch d := rr.Data.(type) {
		case dnsmsg.A:
			addrs = append(addrs, netip.AddrPortFrom(d.Addr, 53))
		case dnsmsg.AAAA:
			addrs = append(addrs, netip.AddrPortFrom(d.Addr, 53))
		}
	}
	if len(addrs) > 0 {
		return zoneName, addrs, nil
	}
	// Glue-less delegation: resolve the nameserver names themselves.
	if b.depth >= maxSubResolutionDepth {
		return zoneName, nil, ErrLoop
	}
	b.depth++
	defer func() { b.depth-- }()
	noAddrs := ErrLame
	for _, ns := range nsNames {
		sub, err := r.resolve(ctx, ns, dnsmsg.TypeA, 0, b)
		if errors.Is(err, ErrLoop) {
			noAddrs = ErrLoop
			if b.queries <= 0 {
				break
			}
		}
		if err != nil {
			continue
		}
		for _, rr := range sub.Answer {
			if a, ok := rr.Data.(dnsmsg.A); ok {
				addrs = append(addrs, netip.AddrPortFrom(a.Addr, 53))
			}
		}
		if len(addrs) > 0 {
			break
		}
	}
	if len(addrs) == 0 {
		return zoneName, nil, noAddrs
	}
	return zoneName, addrs, nil
}

// queryAny tries each server in turn until one responds, each try
// spending one query of the budget.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.AddrPort, qname dnsmsg.Name, qtype dnsmsg.Type, b *budget) (*dnsmsg.Msg, error) {
	var lastErr error = ErrUpstreamFail
	for i, srv := range servers {
		if b.queries <= 0 {
			return nil, ErrLoop
		}
		b.queries--
		if i > 0 {
			obsUpstreamRetries.Inc()
		}
		obsUpstreamQueries.Inc()
		q := &dnsmsg.Msg{ID: nextID()}
		q.SetQuestion(qname, qtype)
		if r.cfg.EDNSSize > 0 {
			q.SetEDNS(r.cfg.EDNSSize, r.cfg.DO)
		}
		resp, err := r.cfg.Exchange.Exchange(ctx, srv, q)
		if err != nil {
			lastErr = err
			continue
		}
		if r.cfg.Tap != nil {
			r.cfg.Tap(srv, q, resp)
		}
		if resp.Rcode == dnsmsg.RcodeServFail || resp.Rcode == dnsmsg.RcodeRefused {
			lastErr = fmt.Errorf("%w: %s from %s", ErrUpstreamFail, resp.Rcode, srv)
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

func hasReferral(m *dnsmsg.Msg) bool {
	if m.Authoritative || len(m.Answer) > 0 {
		return false
	}
	for _, rr := range m.Authority {
		if rr.Type == dnsmsg.TypeNS {
			return true
		}
	}
	return false
}

func (r *Resolver) store(key cache.Key, resp *dnsmsg.Msg) {
	ttl := cache.MinTTL(resp.Answer, resp.Authority)
	if ttl <= 0 {
		return
	}
	// Negative TTL follows the SOA minimum when shorter (RFC 2308).
	if resp.Rcode == dnsmsg.RcodeNXDomain || len(resp.Answer) == 0 {
		for _, rr := range resp.Authority {
			if soa, ok := rr.Data.(dnsmsg.SOA); ok {
				neg := time.Duration(min32(soa.Minimum, rr.TTL)) * time.Second
				if neg < ttl {
					ttl = neg
				}
			}
		}
	}
	r.cache.Put(key, &cache.Entry{
		Rcode:     resp.Rcode,
		Answer:    resp.Answer,
		Authority: resp.Authority,
	}, ttl)
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

var idCounter atomic.Uint32

// nextID hands out query IDs; uniqueness per in-flight socket is all DNS
// needs, and a counter keeps replays reproducible. Resolutions run
// concurrently (ServeUDP), so the counter is atomic.
func nextID() uint16 {
	return uint16(idCounter.Add(1))
}

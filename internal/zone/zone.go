// Package zone implements DNS zone data: an in-memory zone tree loaded
// from master files (or built programmatically), and the authoritative
// lookup algorithm — exact matches, CNAME chains, wildcard synthesis,
// delegations with glue, NXDOMAIN/NODATA negatives, and DNSSEC record
// attachment when the DO bit is set.
//
// The meta-DNS-server (internal/server) hosts many Zones behind
// split-horizon views; the recursive resolver walks referrals produced
// here exactly as it would across real servers.
package zone

import (
	"fmt"
	"sort"

	"ldplayer/internal/dnsmsg"
)

// RRSet is a set of records sharing owner name, type and class.
type RRSet struct {
	Name  dnsmsg.Name
	Type  dnsmsg.Type
	Class dnsmsg.Class
	TTL   uint32
	Data  []dnsmsg.RData
}

// RRs expands the set into individual resource records.
func (s *RRSet) RRs() []dnsmsg.RR {
	return s.AppendRRs(make([]dnsmsg.RR, 0, len(s.Data)))
}

// AppendRRs appends the set's records to dst and returns it — the
// allocation-free form of RRs for callers assembling answers into
// reused slices (the serve hot path).
func (s *RRSet) AppendRRs(dst []dnsmsg.RR) []dnsmsg.RR {
	for _, d := range s.Data {
		dst = append(dst, dnsmsg.RR{Name: s.Name, Type: s.Type, Class: s.Class, TTL: s.TTL, Data: d})
	}
	return dst
}

// node holds all rrsets at one owner name plus the RRSIGs covering them.
type node struct {
	sets map[dnsmsg.Type]*RRSet
	sigs map[dnsmsg.Type]*RRSet // TypeCovered -> RRSIG rrset
}

// Zone is one zone of authority rooted at Origin.
type Zone struct {
	Origin dnsmsg.Name
	Class  dnsmsg.Class

	nodes map[dnsmsg.Name]*node
	ents  map[dnsmsg.Name]int // empty non-terminals: reference counts

	records int // records Add has inserted (RRSIGs included, duplicates not)
}

// New creates an empty IN-class zone rooted at origin.
func New(origin dnsmsg.Name) *Zone {
	return &Zone{
		Origin: origin,
		Class:  dnsmsg.ClassINET,
		nodes:  make(map[dnsmsg.Name]*node),
		ents:   make(map[dnsmsg.Name]int),
	}
}

// Add inserts one record. Records outside the zone are rejected; TTLs
// within an rrset follow the first record added (RFC 2181 §5.2).
func (z *Zone) Add(rr dnsmsg.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
	}
	n := z.nodes[rr.Name]
	if n == nil {
		n = &node{sets: make(map[dnsmsg.Type]*RRSet)}
		z.nodes[rr.Name] = n
		// Register empty non-terminals on the path from origin to owner.
		for p := rr.Name.Parent(); p != z.Origin && p.IsSubdomainOf(z.Origin); p = p.Parent() {
			z.ents[p]++
		}
	}
	if rr.Type == dnsmsg.TypeRRSIG {
		sig, ok := rr.Data.(dnsmsg.RRSIG)
		if !ok {
			return fmt.Errorf("zone %s: RRSIG with wrong rdata at %s", z.Origin, rr.Name)
		}
		if n.sigs == nil {
			n.sigs = make(map[dnsmsg.Type]*RRSet)
		}
		set := n.sigs[sig.TypeCovered]
		if set == nil {
			set = &RRSet{Name: rr.Name, Type: dnsmsg.TypeRRSIG, Class: rr.Class, TTL: rr.TTL}
			n.sigs[sig.TypeCovered] = set
		}
		set.Data = append(set.Data, rr.Data)
		z.records++
		return nil
	}
	set := n.sets[rr.Type]
	if set == nil {
		set = &RRSet{Name: rr.Name, Type: rr.Type, Class: rr.Class, TTL: rr.TTL}
		n.sets[rr.Type] = set
	}
	// Duplicate suppression keeps zone construction from traces idempotent.
	for _, d := range set.Data {
		if dataEqual(d, rr.Data) {
			return nil
		}
	}
	set.Data = append(set.Data, rr.Data)
	z.records++
	return nil
}

func dataEqual(a, b dnsmsg.RData) bool {
	ab, errA := dnsmsg.AppendRData(nil, a)
	bb, errB := dnsmsg.AppendRData(nil, b)
	if errA != nil || errB != nil {
		return false
	}
	return string(ab) == string(bb)
}

// AddRRSet inserts every record of a set.
func (z *Zone) AddRRSet(s *RRSet) error {
	for _, rr := range s.RRs() {
		if err := z.Add(rr); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the rrset for (name, type) if it exists verbatim.
func (z *Zone) Lookup(name dnsmsg.Name, t dnsmsg.Type) (*RRSet, bool) {
	n := z.nodes[name]
	if n == nil {
		return nil, false
	}
	s, ok := n.sets[t]
	return s, ok
}

// Sigs returns the RRSIG set covering (name, coveredType), if present.
func (z *Zone) Sigs(name dnsmsg.Name, covered dnsmsg.Type) (*RRSet, bool) {
	n := z.nodes[name]
	if n == nil || n.sigs == nil {
		return nil, false
	}
	s, ok := n.sigs[covered]
	return s, ok
}

// SOA returns the zone's SOA rrset, or nil when the zone is not complete.
func (z *Zone) SOA() *RRSet {
	s, _ := z.Lookup(z.Origin, dnsmsg.TypeSOA)
	return s
}

// Names returns every owner name in DNSSEC canonical order.
func (z *Zone) Names() []dnsmsg.Name {
	out := make([]dnsmsg.Name, 0, len(z.nodes))
	for n := range z.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return dnsmsg.CanonicalLess(out[i], out[j]) })
	return out
}

// Sets returns all rrsets at a name (not RRSIGs), nil if the name has none.
func (z *Zone) Sets(name dnsmsg.Name) []*RRSet {
	n := z.nodes[name]
	if n == nil {
		return nil
	}
	return n.sortedSets()
}

// sortedSets returns the node's rrsets in ascending type order, so every
// walk over a node (ANY answers, zone transfer) is deterministic.
func (n *node) sortedSets() []*RRSet {
	out := make([]*RRSet, 0, len(n.sets))
	for _, s := range n.sets {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// AllRRs returns every record in the zone (including RRSIGs), owners in
// canonical order, for serialization and zone transfer.
func (z *Zone) AllRRs() []dnsmsg.RR {
	var out []dnsmsg.RR
	for _, name := range z.Names() {
		n := z.nodes[name]
		for _, s := range n.sortedSets() {
			out = append(out, s.RRs()...)
		}
		covered := make([]dnsmsg.Type, 0, len(n.sigs))
		for t := range n.sigs {
			covered = append(covered, t)
		}
		sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
		for _, t := range covered {
			out = append(out, n.sigs[t].RRs()...)
		}
	}
	return out
}

// RecordCount returns the number of records in the zone, RRSIGs
// included. Add keeps the count, so this is O(1).
func (z *Zone) RecordCount() int { return z.records }

// Cuts returns the delegation points (names below the apex owning NS
// rrsets) in canonical order. The zone constructor uses these to split
// intermediate zones.
func (z *Zone) Cuts() []dnsmsg.Name {
	var out []dnsmsg.Name
	for name, n := range z.nodes {
		if name == z.Origin {
			continue
		}
		if _, ok := n.sets[dnsmsg.TypeNS]; ok {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return dnsmsg.CanonicalLess(out[i], out[j]) })
	return out
}

// Validate checks the structural invariants a loadable zone must satisfy:
// an SOA at the apex, NS records at the apex, and no CNAME coexisting
// with other data at a name (RFC 1034 §3.6.2).
func (z *Zone) Validate() error {
	if z.SOA() == nil {
		return fmt.Errorf("zone %s: missing SOA at apex", z.Origin)
	}
	if _, ok := z.Lookup(z.Origin, dnsmsg.TypeNS); !ok {
		return fmt.Errorf("zone %s: missing NS at apex", z.Origin)
	}
	for name, n := range z.nodes {
		if _, hasCNAME := n.sets[dnsmsg.TypeCNAME]; hasCNAME && len(n.sets) > 1 {
			return fmt.Errorf("zone %s: CNAME and other data at %s", z.Origin, name)
		}
		if s, ok := n.sets[dnsmsg.TypeCNAME]; ok && len(s.Data) > 1 {
			return fmt.Errorf("zone %s: multiple CNAMEs at %s", z.Origin, name)
		}
	}
	return nil
}

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
	"bytes"
	"fmt"
	"slices"
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

// node is one entry of the zone's node table: the rrsets at one owner
// name in ascending type order, the RRSIG sets covering them in
// ascending covered-type order, and whether some name below it holds
// data (an empty non-terminal when it holds none itself). A node holds
// a handful of types, so scanning these slices beats hashing into a
// per-node map and keeps ANY and AXFR order ascending by construction.
//
// Most owners in a large zone (a delegation, its glue) hold one rrset
// of one record. The node carries storage for its first set and that
// set's first record, so such an owner allocates no set, no set slice
// and no record slice.
type node struct {
	sets []*RRSet
	sigs []sigSet
	ent  bool

	first     RRSet
	firstSet  [1]*RRSet
	firstData [1]dnsmsg.RData
}

// sigSet is the RRSIG set covering one type at a node.
type sigSet struct {
	covered dnsmsg.Type
	set     *RRSet
}

// hasData reports whether the node owns records; a node without any is
// an empty non-terminal, present only for the names below it.
func (n *node) hasData() bool { return len(n.sets) > 0 || len(n.sigs) > 0 }

// set returns the node's rrset of type t, or nil.
func (n *node) set(t dnsmsg.Type) *RRSet {
	for _, s := range n.sets {
		if s.Type == t {
			return s
		}
	}
	return nil
}

// sig returns the RRSIG set covering type t, or nil.
func (n *node) sig(t dnsmsg.Type) *RRSet {
	for _, s := range n.sigs {
		if s.covered == t {
			return s.set
		}
	}
	return nil
}

// Zone is one zone of authority rooted at Origin.
type Zone struct {
	Origin dnsmsg.Name
	Class  dnsmsg.Class

	// nodes holds every owner name and every empty non-terminal between
	// an owner and the apex.
	nodes map[dnsmsg.Name]*node

	records  int    // records Add has inserted (RRSIGs included, duplicates not)
	conflict error  // first CNAME conflict Add saw, reported by Validate
	scratch  []byte // rdata encodings for duplicate checks
	slab     []node // storage newNode hands nodes out of
}

// New creates an empty IN-class zone rooted at origin.
func New(origin dnsmsg.Name) *Zone {
	return &Zone{
		Origin: origin,
		Class:  dnsmsg.ClassINET,
		nodes:  make(map[dnsmsg.Name]*node),
	}
}

// Add inserts one record. Records outside the zone are rejected; TTLs
// within an rrset follow the first record added (RFC 2181 §5.2).
func (z *Zone) Add(rr dnsmsg.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
	}
	var sig dnsmsg.RRSIG
	if rr.Type == dnsmsg.TypeRRSIG {
		var ok bool
		if sig, ok = rr.Data.(dnsmsg.RRSIG); !ok {
			return fmt.Errorf("zone %s: RRSIG with wrong rdata at %s", z.Origin, rr.Name)
		}
	}
	n := z.node(rr.Name)
	if rr.Type == dnsmsg.TypeRRSIG {
		i := 0
		for i < len(n.sigs) && n.sigs[i].covered < sig.TypeCovered {
			i++
		}
		if i == len(n.sigs) || n.sigs[i].covered != sig.TypeCovered {
			set := &RRSet{Name: rr.Name, Type: dnsmsg.TypeRRSIG, Class: rr.Class, TTL: rr.TTL}
			n.sigs = slices.Insert(n.sigs, i, sigSet{covered: sig.TypeCovered, set: set})
		}
		n.sigs[i].set.Data = append(n.sigs[i].set.Data, rr.Data)
		z.records++
		return nil
	}
	i := 0
	for i < len(n.sets) && n.sets[i].Type < rr.Type {
		i++
	}
	switch {
	case len(n.sets) == 0:
		n.first = RRSet{Name: rr.Name, Type: rr.Type, Class: rr.Class, TTL: rr.TTL, Data: n.firstData[:0]}
		n.firstSet[0] = &n.first
		n.sets = n.firstSet[:]
	case i == len(n.sets) || n.sets[i].Type != rr.Type:
		n.sets = slices.Insert(n.sets, i, &RRSet{Name: rr.Name, Type: rr.Type, Class: rr.Class, TTL: rr.TTL})
	case z.duplicate(n.sets[i], rr.Data):
		// Duplicate suppression keeps zone construction from traces idempotent.
		return nil
	}
	set := n.sets[i]
	set.Data = append(set.Data, rr.Data)
	z.records++
	if z.conflict == nil {
		if cname := n.set(dnsmsg.TypeCNAME); cname != nil {
			if len(n.sets) > 1 {
				z.conflict = fmt.Errorf("zone %s: CNAME and other data at %s", z.Origin, rr.Name)
			} else if len(cname.Data) > 1 {
				z.conflict = fmt.Errorf("zone %s: multiple CNAMEs at %s", z.Origin, rr.Name)
			}
		}
	}
	return nil
}

// node returns the table entry for an in-zone owner, creating it — and
// flagging its ancestors up to the apex as non-terminals — on first
// use. Add never removes data, so a flag never clears, and any ancestor
// already in the table had its own ancestors flagged when it was made:
// the walk stops there.
func (z *Zone) node(name dnsmsg.Name) *node {
	n := z.nodes[name]
	if n == nil {
		n = z.newNode()
		z.nodes[name] = n
		for p := name.Parent(); p != z.Origin && p.IsSubdomainOf(z.Origin); p = p.Parent() {
			if a := z.nodes[p]; a != nil {
				a.ent = true
				break
			}
			a := z.newNode()
			a.ent = true
			z.nodes[p] = a
		}
	}
	return n
}

// newNode hands out the next node of the zone's current slab. Nodes are
// never freed one by one, so allocating them in slabs saves an
// allocation per owner and leaves the collector fewer objects to mark;
// slabs double from 4 nodes up to 128, so a small zone wastes little.
func (z *Zone) newNode() *node {
	if len(z.slab) == cap(z.slab) {
		z.slab = make([]node, 0, min(max(2*cap(z.slab), 4), 128))
	}
	z.slab = z.slab[:len(z.slab)+1]
	return &z.slab[len(z.slab)-1]
}

// duplicate reports whether set already holds rdata whose wire form is
// byte-identical to d's. Both encodings go into the zone's reused
// scratch buffer, so the check allocates nothing once it has grown.
func (z *Zone) duplicate(set *RRSet, d dnsmsg.RData) bool {
	want, err := dnsmsg.AppendRData(z.scratch[:0], d)
	if err != nil {
		return false
	}
	z.scratch = want
	for _, have := range set.Data {
		if buf, err := dnsmsg.AppendRData(want, have); err == nil {
			z.scratch = buf
			if bytes.Equal(want, buf[len(want):]) {
				return true
			}
		}
	}
	return false
}

// Lookup returns the rrset for (name, type) if it exists verbatim.
func (z *Zone) Lookup(name dnsmsg.Name, t dnsmsg.Type) (*RRSet, bool) {
	n := z.nodes[name]
	if n == nil {
		return nil, false
	}
	s := n.set(t)
	return s, s != nil
}

// Sigs returns the RRSIG set covering (name, coveredType), if present.
func (z *Zone) Sigs(name dnsmsg.Name, covered dnsmsg.Type) (*RRSet, bool) {
	n := z.nodes[name]
	if n == nil {
		return nil, false
	}
	s := n.sig(covered)
	return s, s != nil
}

// SOA returns the zone's SOA rrset, or nil when the zone is not complete.
func (z *Zone) SOA() *RRSet {
	s, _ := z.Lookup(z.Origin, dnsmsg.TypeSOA)
	return s
}

// Names returns every owner name in DNSSEC canonical order. Empty
// non-terminals own nothing and are not listed.
func (z *Zone) Names() []dnsmsg.Name {
	return z.sortedNames(func(n *node) bool { return n.hasData() })
}

// sortedNames returns the names whose nodes satisfy keep, in canonical
// order.
func (z *Zone) sortedNames(keep func(*node) bool) []dnsmsg.Name {
	var out []dnsmsg.Name
	for name, n := range z.nodes {
		if keep(n) {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return dnsmsg.CanonicalLess(out[i], out[j]) })
	return out
}

// Sets returns all rrsets at a name (not RRSIGs) in ascending type
// order, nil if the name has none.
func (z *Zone) Sets(name dnsmsg.Name) []*RRSet {
	n := z.nodes[name]
	if n == nil || len(n.sets) == 0 {
		return nil
	}
	return slices.Clone(n.sets)
}

// AllRRs returns every record in the zone (including RRSIGs), owners in
// canonical order, for serialization and zone transfer.
func (z *Zone) AllRRs() []dnsmsg.RR {
	var out []dnsmsg.RR
	for _, name := range z.Names() {
		n := z.nodes[name]
		for _, s := range n.sets {
			out = s.AppendRRs(out)
		}
		for _, s := range n.sigs {
			out = s.set.AppendRRs(out)
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
	apex := z.nodes[z.Origin]
	return z.sortedNames(func(n *node) bool { return n != apex && n.set(dnsmsg.TypeNS) != nil })
}

// Validate checks the structural invariants a loadable zone must satisfy:
// an SOA at the apex, NS records at the apex, and no CNAME coexisting
// with other data at a name (RFC 1034 §3.6.2). Add records the first
// CNAME conflict in insertion order, so Validate does not walk the zone.
func (z *Zone) Validate() error {
	if z.SOA() == nil {
		return fmt.Errorf("zone %s: missing SOA at apex", z.Origin)
	}
	if _, ok := z.Lookup(z.Origin, dnsmsg.TypeNS); !ok {
		return fmt.Errorf("zone %s: missing NS at apex", z.Origin)
	}
	return z.conflict
}

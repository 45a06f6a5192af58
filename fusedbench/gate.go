package main

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
)

// inproc is an in-process server loaded from the same zone file as the
// live one: the oracle the correctness gate compares against.
type inproc struct {
	z    *zone.Zone
	data []byte // the zone file
	srv  *server.Server
	req  *dnsmsg.Msg
}

var loopback = netip.MustParseAddr("127.0.0.1")

func loadInproc(path string) (*inproc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	z, err := zone.Parse(bytes.NewReader(data), "")
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := z.Validate(); err != nil {
		return nil, err
	}
	p := &inproc{z: z, data: data, req: new(dnsmsg.Msg)}
	p.srv, err = p.newServer()
	return p, err
}

// newServer builds a fresh server (empty answer cache) over the zone.
func (p *inproc) newServer() (*server.Server, error) {
	srv := server.New(server.Config{UDPWorkers: 1})
	return srv, srv.AddZone(p.z)
}

// maxSize is the response limit ldp-server applies on each transport.
func maxSize(proto trace.Proto) int {
	if proto == trace.UDP {
		return dnsmsg.MaxUDPSize
	}
	return 0
}

// answer is the in-process response to one query wire, packed into out.
func (p *inproc) answer(wire []byte, proto trace.Proto, out []byte) ([]byte, error) {
	if err := p.req.UnpackBuffer(wire); err != nil {
		return nil, err
	}
	return p.srv.HandleQueryWire(loopback, p.req, maxSize(proto), out[:0])
}

// gate checks the live server's answers against the in-process oracle:
// every step's live rcode counts (retried answers included) must match
// the oracle's up to the step's unanswered queries, no response may fail to decode, and a
// sample of the base queries re-asked one at a time must come back
// byte-identical (ignoring the ID). It returns the oracle for reuse.
func (b *bench) gate(ctx context.Context, ms []*measurement) (*inproc, error) {
	defer b.tr.begin("gate")()
	p, err := loadInproc(b.in.zone)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		for _, s := range m.all() {
			if s.bad != 0 {
				return nil, fmt.Errorf("gate: step %s: %d responses failed to decode", s.name, s.bad)
			}
			want, err := p.rcodes(s.file.path, b.w.proto)
			if err != nil {
				return nil, err
			}
			if err := compareRcodes(s, want); err != nil {
				return nil, err
			}
		}
	}
	events, err := readTraces(b.in.base)
	if err != nil {
		return nil, err
	}
	if err := b.sampleCheck(ctx, p, events); err != nil {
		return nil, err
	}
	return p, nil
}

// rcodes counts the oracle's rcodes over a trace file, in trace order.
func (p *inproc) rcodes(path string, proto trace.Proto) (map[string]uint64, error) {
	events, err := readTrace(path)
	if err != nil {
		return nil, err
	}
	counts := map[string]uint64{}
	var out []byte
	for _, e := range events {
		if out, err = p.answer(e.Wire, proto, out); err != nil {
			return nil, err
		}
		counts[dnsmsg.Rcode(out[3]&0x0f).String()]++
	}
	return counts, nil
}

func compareRcodes(s *stepResult, want map[string]uint64) error {
	var missing uint64
	names := map[string]bool{}
	for rc := range want {
		names[rc] = true
	}
	for rc := range s.rcodes {
		names[rc] = true
	}
	keys := make([]string, 0, len(names))
	for rc := range names {
		keys = append(keys, rc)
	}
	sort.Strings(keys)
	for _, rc := range keys {
		if s.rcodes[rc] > want[rc] {
			return fmt.Errorf("gate: step %s: live %s count %d exceeds the oracle's %d", s.name, rc, s.rcodes[rc], want[rc])
		}
		missing += want[rc] - s.rcodes[rc]
	}
	if missing > uint64(s.unresolved) {
		return fmt.Errorf("gate: step %s: live rcodes miss %d answers but only %d queries went unanswered", s.name, missing, s.unresolved)
	}
	return nil
}

// sampleCheck re-asks evenly spaced base queries one at a time over the
// workload's transport and compares the wire answers.
func (b *bench) sampleCheck(ctx context.Context, p *inproc, events []*trace.Event) error {
	proto := transport.UDP
	if b.w.proto == trace.TCP {
		proto = transport.TCP
	}
	ep, err := (&transport.NetDialer{}).Dial(ctx, proto, b.srv.addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	n := b.opts.scale.gateSample
	if n > len(events) {
		n = len(events)
	}
	buf := make([]byte, 65535)
	var want []byte
	for i := 0; i < n; i++ {
		e := events[i*len(events)/n]
		if want, err = p.answer(e.Wire, b.w.proto, want); err != nil {
			return err
		}
		got, err := exchange(ep, e.Wire, buf)
		if err != nil {
			return fmt.Errorf("gate: sample %d: %w", i, err)
		}
		if !sameAnswer(got, want) {
			return fmt.Errorf("gate: sample %d (%x): live answer %x, oracle %x", i, e.Wire, got, want)
		}
	}
	return nil
}

// resultKey identifies a trace query among a run's results: its trace
// offset, source and protocol.
type resultKey struct {
	offset time.Duration
	src    netip.Addr
	proto  trace.Proto
}

// retryLost re-asks, one at a time over the workload's transport, every
// trace query the run got no answer for, as a DNS client re-asks after a
// timeout. A loaded shared host drops some datagrams whenever it stalls
// either process, so replay's own loss (failed, replay.answered_ratio,
// the server.loss_* split) varies from run to run; what must not vary is
// that every query has an answer. The retried answers' rcodes join the
// run's live counts for the gate; a query still unanswered after the
// retries counts as unresolved, and a response that does not decode as a
// DNS response fails the run.
func (b *bench) retryLost(ctx context.Context, s *stepResult) error {
	if s.failed == 0 {
		return nil
	}
	defer b.tr.begin("retry." + s.name)()
	answered := map[resultKey]int{}
	for _, r := range s.rep.Results {
		if r.RTT >= 0 {
			answered[resultKey{r.TraceOffset, r.Src, r.Proto}]++
		}
	}
	events, err := readTrace(s.file.path)
	if err != nil {
		return err
	}
	var lost []*trace.Event
	var start time.Time
	for _, e := range events {
		if !e.IsQuery() {
			continue
		}
		if start.IsZero() {
			start = e.Time // replay's offsets count from the first query
		}
		k := resultKey{e.Time.Sub(start), e.Src.Addr(), e.Proto}
		if answered[k] > 0 {
			answered[k]--
			continue
		}
		lost = append(lost, e)
	}
	proto := transport.UDP
	if b.w.proto == trace.TCP {
		proto = transport.TCP
	}
	ep, err := (&transport.NetDialer{}).Dial(ctx, proto, b.srv.addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	buf := make([]byte, 65535)
	s.unresolved = len(lost)
	for i, e := range lost {
		// A fresh ID per query, so a late answer to an earlier retry is
		// never taken for this one's.
		wire := append([]byte(nil), e.Wire...)
		wire[0], wire[1] = byte(i>>8), byte(i)
		got, err := exchange(ep, wire, buf)
		if err != nil {
			break // the server stopped answering; the rest stay unresolved
		}
		if len(got) < 12 || got[2]&0x80 == 0 {
			return fmt.Errorf("gate: retry in step %s: response %x is not a DNS response", s.name, got)
		}
		s.rcodes[dnsmsg.Rcode(got[3]&0x0f).String()]++
		s.unresolved--
	}
	return nil
}

// exchange sends one query and returns the response with its ID,
// retrying a lost UDP datagram a few times.
func exchange(ep transport.Endpoint, wire, buf []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := ep.SetDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		if err := ep.Send(wire); err != nil {
			return nil, err
		}
		for {
			n, err := ep.Recv(buf)
			if err != nil {
				lastErr = err
				break
			}
			if n >= 2 && buf[0] == wire[0] && buf[1] == wire[1] {
				return buf[:n], nil
			}
		}
	}
	return nil, lastErr
}

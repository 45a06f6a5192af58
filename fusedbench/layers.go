package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
)

// The per-layer passes time batches of calls into each layer's public
// functions with this process's inputs. Each returns nanoseconds per
// call (or per record, per datagram).

// repeat runs pass reps times and returns the median of its results.
func repeat(reps int, pass func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := pass()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// layerPasses measures the per-layer metrics of a traced run: live
// numbers from the traced repeat's base runs (counters summed, the rest
// medians over the runs), and the timed passes.
func (b *bench) layerPasses(p *inproc) error {
	base := b.traced.base
	put := func(name string, v float64, unit string) { b.result.metrics[name] = metric{v, unit} }
	sum := func(f func(*stepResult) float64) float64 {
		t := 0.0
		for _, s := range base {
			t += f(s)
		}
		return t
	}
	delta := func(name string) float64 {
		return sum(func(s *stepResult) float64 { return float64(s.serverDelta(name)) })
	}

	var files []traceFile
	for _, s := range base {
		files = append(files, s.file)
	}
	events, err := readTraces(files)
	if err != nil {
		return err
	}
	layer := func(name string, reps int, pass func() (float64, error)) (float64, error) {
		defer b.tr.begin("layer." + name)()
		return repeat(reps, pass)
	}

	// trace
	read, err := layer("trace.read", 3, func() (float64, error) { return readPass(files[0].path) })
	if err != nil {
		return err
	}
	put("trace.read_ns_per_event", read, "ns")

	// The staircase of the traced repeat: see README.md for why this
	// capacity is not an end-to-end metric.
	put("staircase.slo_qps", b.traced.slo, "queries/s")

	// replay
	put("replay.busy_frac", med(base, func(s *stepResult) float64 { return s.busy(s.benchCPU, b.procs) }), "fraction")
	put("replay.latency_p50_us", med(base, func(s *stepResult) float64 { return s.latP50 }), "us")
	put("replay.latency_p90_us", med(base, func(s *stepResult) float64 { return s.latP90 }), "us")
	put("replay.lateness_p50_us", med(base, func(s *stepResult) float64 { return s.lateP50 }), "us")
	put("replay.lateness_p99_us", med(base, func(s *stepResult) float64 { return s.lateP99 }), "us")
	put("host.steal_frac", med(base, func(s *stepResult) float64 { return s.steal }), "fraction")
	put("replay.rtt_p50_us", med(base, func(s *stepResult) float64 { return s.rttP50 }), "us")
	put("replay.latency_p99_us", med(base, func(s *stepResult) float64 { return s.latP99 }), "us")
	put("replay.latency_p999_us", med(base, func(s *stepResult) float64 { return s.latP999 }), "us")
	sent := sum(func(s *stepResult) float64 { return float64(s.rep.Sent) })
	responses := sum(func(s *stepResult) float64 { return float64(s.rep.Responses) })
	put("replay.answered_ratio", pool(base).answeredRatio(), "fraction")
	put("replay.sent", sent, "count")
	put("replay.responses", responses, "count")
	put("replay.timeouts", sum(func(s *stepResult) float64 { return float64(s.rep.Timeouts) }), "count")
	put("replay.send_errors", sum(func(s *stepResult) float64 { return float64(s.rep.SendErrs) }), "count")
	put("replay.bad_responses", sum(func(s *stepResult) float64 { return float64(s.bad) }), "count")
	put("replay.id_exhausted", sum(func(s *stepResult) float64 { return float64(s.rep.IDExhausted) }), "count")
	put("replay.drain_s", med(base, func(s *stepResult) float64 { return (s.wall - s.rep.Duration).Seconds() }), "s")

	// transport
	sendUDP, err := layer("transport.conn_send_udp", 3, func() (float64, error) { return b.sendPass(transport.UDP, events) })
	if err != nil {
		return err
	}
	sendTCP, err := layer("transport.conn_send_tcp", 3, func() (float64, error) { return b.sendPass(transport.TCP, events) })
	if err != nil {
		return err
	}
	put("transport.conn_send_udp_ns", sendUDP, "ns")
	put("transport.conn_send_tcp_ns", sendTCP, "ns")
	batch := map[int][2]float64{}
	for _, fill := range []int{1, 32} {
		var wr, rd float64
		if _, err := layer(fmt.Sprintf("transport.batch.fill%d", fill), 1, func() (float64, error) {
			var err error
			wr, rd, err = batchPass(fill, events)
			return 0, err
		}); err != nil {
			return err
		}
		batch[fill] = [2]float64{wr, rd}
		put(fmt.Sprintf("transport.batch_write_ns_per_dgram.fill%d", fill), wr, "ns")
		put(fmt.Sprintf("transport.batch_read_ns_per_dgram.fill%d", fill), rd, "ns")
	}

	// dnsmsg
	unpack, err := layer("dnsmsg.unpack", 3, func() (float64, error) { return unpackPass(events) })
	if err != nil {
		return err
	}
	put("dnsmsg.unpack_ns_per_q", unpack, "ns")
	var respBytes float64
	pack, err := layer("dnsmsg.pack", 3, func() (float64, error) {
		var ns float64
		var err error
		ns, respBytes, err = packPass(p, events, b.w.proto)
		return ns, err
	})
	if err != nil {
		return err
	}
	put("dnsmsg.pack_ns_per_resp", pack, "ns")
	put("dnsmsg.resp_bytes_p50", respBytes, "bytes")

	// server
	handle, err := layer("server.handle", 3, func() (float64, error) { return b.handlePass(p, events) })
	if err != nil {
		return err
	}
	put("server.handle_ns_per_q", handle, "ns")
	hits, misses := delta("server.anscache.hits"), delta("server.anscache.misses")
	if hits+misses > 0 {
		put("server.anscache_hit_ratio", hits/(hits+misses), "fraction")
	} else {
		put("server.anscache_hit_ratio", 0, "fraction")
	}
	put("server.busy_frac", med(base, func(s *stepResult) float64 { return s.busy(s.serverCPU, b.procs) }), "fraction")
	put("server.loss_inbound", sent-delta("server.queries"), "count")
	put("server.loss_outbound", delta("server.responses")-responses, "count")
	put("server.conns_tcp_total", delta("server.conns.tcp_total"), "count")

	// zone
	recs := float64(p.z.RecordCount())
	tok, err := layer("zone.tokenize", zoneReps(recs), func() (float64, error) { return tokenizePass(p.data) })
	if err != nil {
		return err
	}
	parse, err := layer("zone.parse", zoneReps(recs), func() (float64, error) { return parsePass(p.data) })
	if err != nil {
		return err
	}
	allocs, heap, err := parseMemory(p.data)
	if err != nil {
		return err
	}
	validate, err := layer("zone.validate", zoneReps(recs), func() (float64, error) { return validatePass(p.z) })
	if err != nil {
		return err
	}
	query, err := layer("zone.query", 3, func() (float64, error) { return queryPass(p.z, events) })
	if err != nil {
		return err
	}
	put("zone.tokenize_ns_per_rec", tok, "ns")
	put("zone.parse_ns_per_rec", parse, "ns")
	put("zone.build_ns_per_rec", parse-tok, "ns")
	put("zone.parse_allocs_per_rec", allocs, "allocs")
	put("zone.heap_bytes_per_rec", heap, "bytes")
	put("zone.validate_ns_per_rec", validate, "ns")
	put("zone.query_ns_per_q", query, "ns")
	put("zone.setup_unexplained_s", median(b.setups)-(parse+validate)*recs/1e9, "s")

	// Residuals against the untraced e2e costs (see reconcile).
	b.reconcile(read, sendUDP, sendTCP, batch[1], unpack, handle)
	for _, r := range b.recon {
		if r.Residual {
			put(r.Stage, r.NS, "ns")
		}
	}
	put("tracing.overhead_frac", b.tracingOverhead(), "fraction")
	return nil
}

// zoneReps keeps each zone pass near a fixed amount of work: many
// repetitions of the 51-record root zone, one of the 600k-record TLD.
func zoneReps(recs float64) int {
	n := int(200000 / recs)
	if n < 1 {
		return 1
	}
	if n > 500 {
		return 500
	}
	return n
}

// tracingOverhead compares the traced repeat's base-step replay CPU per
// query with the untraced run's.
func (b *bench) tracingOverhead() float64 {
	return pool(b.traced.base).replayNsPerQ()/pool(b.untraced.base).replayNsPerQ() - 1
}

func readPass(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := trace.NewBinaryReader(f)
	dst := make([]*trace.Event, 32)
	n := 0
	start := time.Now()
	for {
		k, err := br.ReadBatch(dst)
		n += k
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}

// sendPass times Conn.Send against the live server in bursts of 100,
// waiting for each burst's answers so the server never has to drop.
func (b *bench) sendPass(proto transport.Proto, events []*trace.Event) (float64, error) {
	const burst, bursts = 100, 20
	var answered atomic.Int64
	done := make(chan struct{}, 1)
	var want atomic.Int64
	signal := func() {
		if answered.Add(1) == want.Load() {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	}
	c := transport.NewConn(transport.ConnConfig{
		Dial: func() (transport.Endpoint, error) {
			return (&transport.NetDialer{}).Dial(context.Background(), proto, b.srv.addr)
		},
		OnResponse: func(any, time.Duration, []byte) { signal() },
		OnDrop:     func(any) { signal() },
	})
	defer c.Wait()
	defer c.Close()
	var spent time.Duration
	sent := 0
	for i := 0; i < bursts; i++ {
		want.Store(int64((i + 1) * burst))
		start := time.Now()
		for j := 0; j < burst; j++ {
			if _, err := c.Send(events[(sent+j)%len(events)].Wire, nil); err != nil {
				return 0, err
			}
		}
		spent += time.Since(start)
		sent += burst
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			return 0, fmt.Errorf("conn send pass: %d of %d answers after 2s", answered.Load(), sent)
		}
	}
	return float64(spent) / float64(sent), nil
}

// batchPass times UDPBatch writes and reads of fill datagrams per call
// between two loopback sockets, one round at a time so nothing drops.
func batchPass(fill int, events []*trace.Event) (write, read float64, err error) {
	const total = 1 << 14
	a, _, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	bpc, baddr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer bpc.Close()
	wb, rb := transport.NewUDPBatch(a), transport.NewUDPBatch(bpc)
	out := make([]transport.Datagram, fill)
	in := make([]transport.Datagram, fill)
	for i := range in {
		in[i].Buf = make([]byte, 65535)
	}
	if err := bpc.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, 0, err
	}
	var wt, rt time.Duration
	for sent := 0; sent < total; sent += fill {
		for i := range out {
			out[i] = transport.Datagram{Buf: events[(sent+i)%len(events)].Wire, Addr: baddr}
		}
		start := time.Now()
		for w := 0; w < fill; {
			n, err := wb.WriteBatch(out[w:])
			if err != nil {
				return 0, 0, err
			}
			w += n
		}
		mid := time.Now()
		for r := 0; r < fill; {
			n, err := rb.ReadBatch(in[:fill-r])
			if err != nil {
				return 0, 0, err
			}
			r += n
		}
		rt += time.Since(mid)
		wt += mid.Sub(start)
	}
	return float64(wt) / total, float64(rt) / total, nil
}

func unpackPass(events []*trace.Event) (float64, error) {
	m := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(m)
	start := time.Now()
	for _, e := range events {
		if err := m.UnpackBuffer(e.Wire); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(len(events)), nil
}

// packPass times PackBuffer over the oracle's responses to the base
// queries (built by HandleQuery beforehand) and returns the median
// response size too.
func packPass(p *inproc, events []*trace.Event, proto trace.Proto) (ns, p50 float64, err error) {
	const maxResps = 20000
	n := len(events)
	if n > maxResps {
		n = maxResps
	}
	resps := make([]*dnsmsg.Msg, n)
	for i := range resps {
		var q dnsmsg.Msg
		if err := q.Unpack(events[i*len(events)/n].Wire); err != nil {
			return 0, 0, err
		}
		resps[i] = p.srv.HandleQuery(loopback, &q, maxSize(proto))
	}
	buf := make([]byte, 0, 65535)
	sizes := make([]float64, n)
	for i, r := range resps { // warm each message's packing arena
		out, err := r.PackBuffer(buf[:0])
		if err != nil {
			return 0, 0, err
		}
		sizes[i] = float64(len(out))
	}
	start := time.Now()
	for _, r := range resps {
		if _, err := r.PackBuffer(buf[:0]); err != nil {
			return 0, 0, err
		}
	}
	return float64(time.Since(start)) / float64(n), pct(sizes, 0.5), nil
}

// handlePass times HandleQueryWire over the base queries in trace order
// on a fresh server (cold answer cache, like the live one), decoding
// each batch of 256 queries before timing the batch's calls.
func (b *bench) handlePass(p *inproc, events []*trace.Event) (float64, error) {
	srv, err := p.newServer()
	if err != nil {
		return 0, err
	}
	const batch = 256
	reqs := make([]*dnsmsg.Msg, batch)
	for i := range reqs {
		reqs[i] = new(dnsmsg.Msg)
	}
	limit := maxSize(b.w.proto)
	out := make([]byte, 0, 65535)
	var spent time.Duration
	for i := 0; i < len(events); i += batch {
		n := min(batch, len(events)-i)
		for j := 0; j < n; j++ {
			if err := reqs[j].UnpackBuffer(events[i+j].Wire); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for j := 0; j < n; j++ {
			if out, err = srv.HandleQueryWire(loopback, reqs[j], limit, out[:0]); err != nil {
				return 0, err
			}
		}
		spent += time.Since(start)
	}
	return float64(spent) / float64(len(events)), nil
}

func tokenizePass(data []byte) (float64, error) {
	sp := zone.NewStreamParserBytes(data, "")
	var rec zone.Rec
	n := 0
	start := time.Now()
	for {
		err := sp.Next(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	return float64(time.Since(start)) / float64(n), nil
}

func parsePass(data []byte) (float64, error) {
	start := time.Now()
	z, err := zone.Parse(bytes.NewReader(data), "")
	if err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(z.RecordCount()), nil
}

// parseMemory counts one Parse's allocations, and the heap the parsed
// zone keeps, per record.
func parseMemory(data []byte) (allocs, heap float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	z, err := zone.Parse(bytes.NewReader(data), "")
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&m1)
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(z.RecordCount())
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heap = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(z.RecordCount())
	runtime.KeepAlive(z)
	return allocs, heap, nil
}

func validatePass(z *zone.Zone) (float64, error) {
	start := time.Now()
	if err := z.Validate(); err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(z.RecordCount()), nil
}

// queryPass times QueryInto for the base queries' questions.
func queryPass(z *zone.Zone, events []*trace.Event) (float64, error) {
	type question struct {
		name dnsmsg.Name
		t    dnsmsg.Type
		do   bool
	}
	qs := make([]question, len(events))
	for i, e := range events {
		var m dnsmsg.Msg
		if err := m.Unpack(e.Wire); err != nil {
			return 0, err
		}
		_, do, _ := m.EDNS()
		qs[i] = question{m.Question[0].Name, m.Question[0].Type, do}
	}
	var a zone.Answer
	start := time.Now()
	for _, q := range qs {
		z.QueryInto(&a, q.name, q.t, q.do)
	}
	return float64(time.Since(start)) / float64(len(qs)), nil
}

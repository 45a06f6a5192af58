package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/dnssec"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
	"ldplayer/internal/zone"
	"ldplayer/internal/zonegen"
)

// workloadSpec is one traffic mix. README.md gives the reason for each.
type workloadSpec struct {
	name  string
	proto trace.Proto
	hot   bool // tld-hot: com. delegation zone, skewed to hot names
}

var workloads = map[string]workloadSpec{
	"root-udp": {name: "root-udp", proto: trace.UDP},
	"root-tcp": {name: "root-tcp", proto: trace.TCP},
	"tld-hot":  {name: "tld-hot", proto: trace.UDP, hot: true},
}

// scale holds the sizes and rates of a run. fullScale is the benchmark;
// the smoke test shrinks it.
type scale struct {
	baseRate    float64       // queries/s of the fixed-rate base step (root: B-Root model median)
	delegations int           // tld-hot: delegations in the com. zone
	hotNames    int           // tld-hot: names carrying the hot share of queries
	stepLen     time.Duration // length of each staircase step above the base
	maxSteps    int           // staircase steps above the base, at most
	setups      int           // server spawns timed per run (root workloads)
	hotSetups   int           // server spawns timed per run (tld-hot)
	gateSample  int           // queries re-asked one by one for the byte comparison
}

var fullScale = scale{
	baseRate:    20000,
	delegations: 300000,
	hotNames:    2000,
	stepLen:     time.Second,
	maxSteps:    40,
	setups:      9,
	hotSetups:   3,
	gateSample:  400,
}

const (
	stepFactor = 1.05     // staircase rates grow 5% per step
	hotShare   = 0.99     // tld-hot: share of queries for the hot names
	zoneSeed   = 20160406 // zones are fixed inputs; traces come from -seed
)

// zoneFile returns the workload's master file, generating it on first
// use. Zones do not depend on the seed, so one file per checkout serves
// every run; generating the 600k-record com. zone takes far longer than
// loading it.
func zoneFile(dir string, w workloadSpec, sc scale) (string, error) {
	name := "root-signed-zsk2048.zone"
	if w.hot {
		name = fmt.Sprintf("com-%d.zone", sc.delegations)
	}
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	var z *zone.Zone
	if w.hot {
		h, err := zonegen.Generate(zonegen.Config{
			TLDs: []string{"com"}, SLDsPerTLD: sc.delegations, HostsPerSLD: 1, Seed: zoneSeed,
		})
		if err != nil {
			return "", err
		}
		z = h.Zones["com."]
	} else {
		z = zonegen.RootZone(nil)
		cfg := dnssec.SignConfig{ZSKBits: 2048, Seed: zoneSeed}
		signer, err := dnssec.NewSigner(cfg)
		if err != nil {
			return "", err
		}
		if err := dnssec.SignZone(z, signer, cfg); err != nil {
			return "", err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if _, err := z.WriteTo(f); err != nil {
		f.Close() //ldp:nolint errcheck — error path; the write error is returned
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// fileSHA256 returns the hex SHA-256 of a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// traceFile is one generated query stream in the binary trace format.
type traceFile struct {
	path    string
	queries int
	sha256  string
}

// writeTrace stores events with trace.BinaryWriter.
func writeTrace(path string, events []*trace.Event) (traceFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return traceFile{}, err
	}
	h := sha256.New()
	bw := trace.NewBinaryWriter(io.MultiWriter(f, h))
	for _, e := range events {
		if err := bw.Write(e); err != nil {
			f.Close() //ldp:nolint errcheck — error path; the write error is returned
			return traceFile{}, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //ldp:nolint errcheck — error path; the flush error is returned
		return traceFile{}, err
	}
	if err := f.Close(); err != nil {
		return traceFile{}, err
	}
	return traceFile{path: path, queries: len(events), sha256: hex.EncodeToString(h.Sum(nil))}, nil
}

// readTrace loads a trace file back into memory (for the correctness
// gate and the per-layer passes, never on the measured path).
func readTrace(path string) ([]*trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadAll(trace.NewBinaryReader(bufio.NewReader(f)))
	if err != nil {
		return nil, err
	}
	return tr.Events, nil
}

// readTraces concatenates trace files.
func readTraces(files []traceFile) ([]*trace.Event, error) {
	var all []*trace.Event
	for _, tf := range files {
		events, err := readTrace(tf.path)
		if err != nil {
			return nil, err
		}
		all = append(all, events...)
	}
	return all, nil
}

// sources are the folded query sources: at most nproc addresses, so
// replay opens at most nproc sockets or connections.
func sources(nproc int) []netip.AddrPort {
	out := make([]netip.AddrPort, nproc)
	for i := range out {
		out[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i + 1)}), 53000)
	}
	return out
}

// foldRoot rewrites B-Root model events for the workload: every query
// uses the workload's protocol and one of the folded sources, chosen by
// the original source so each original client stays on one socket.
func foldRoot(events []*trace.Event, proto trace.Proto, srcs []netip.AddrPort) {
	for _, e := range events {
		h := fnv.New32a()
		a := e.Src.Addr().As16()
		h.Write(a[:])
		e.Src = srcs[h.Sum32()%uint32(len(srcs))]
		e.Proto = proto
	}
}

// retime spaces events at exactly rate queries/s with a random offset
// inside each slot, so a staircase step offers the rate it names.
func retime(events []*trace.Event, rate float64, rng *rand.Rand) {
	for i, e := range events {
		e.Time = workload.DefaultStart.Add(time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second)))
	}
}

// rootBase is the root workloads' base step: the B-Root model at its
// own rate curve around the scale's median.
func rootBase(seed int64, seconds int, sc scale, proto trace.Proto, srcs []netip.AddrPort) []*trace.Event {
	tr := workload.BRootModel(workload.BRootConfig{
		Duration:   time.Duration(seconds) * time.Second,
		MedianRate: sc.baseRate,
		Seed:       seed,
	})
	foldRoot(tr.Events, proto, srcs)
	return tr.Events
}

// rootStep is one staircase step of a root workload: the B-Root query
// mix at exactly rate queries/s for sc.stepLen.
func rootStep(seed int64, step int, rate float64, sc scale, proto trace.Proto, srcs []netip.AddrPort) ([]*trace.Event, error) {
	n := int(rate * sc.stepLen.Seconds())
	// The model draws each second's count around the median; 30% spare
	// covers its noise.
	secs := math.Ceil(sc.stepLen.Seconds() * 1.3)
	tr := workload.BRootModel(workload.BRootConfig{
		Duration:   time.Duration(secs) * time.Second,
		MedianRate: rate,
		Seed:       seed*1000 + int64(step),
	})
	if len(tr.Events) < n {
		return nil, fmt.Errorf("B-Root model gave %d queries, step needs %d", len(tr.Events), n)
	}
	events := tr.Events[:n]
	foldRoot(events, proto, srcs)
	retime(events, rate, rand.New(rand.NewSource(seed*1000+int64(step))))
	return events, nil
}

// hotMix draws tld-hot queries: hotShare of them for the hot names
// (skewed towards the first), the rest for any delegation in the zone.
type hotMix struct {
	hot  []dnsmsg.Name
	srcs []netip.AddrPort
	// All delegation names, packed into one string: 300k separate
	// strings would be 300k pointers for every garbage collection of
	// the replaying process to scan.
	names string
	ends  []int32 // names[ends[i-1]:ends[i]] is delegation i
}

// newHotMix picks n hot delegations from the zone's cuts.
func newHotMix(cuts []dnsmsg.Name, n int, seed int64, srcs []netip.AddrPort) *hotMix {
	rng := rand.New(rand.NewSource(seed))
	if n > len(cuts) {
		n = len(cuts)
	}
	hot := make([]dnsmsg.Name, n)
	for i, j := range rng.Perm(len(cuts))[:n] {
		hot[i] = cuts[j]
	}
	m := &hotMix{hot: hot, srcs: srcs, ends: make([]int32, len(cuts))}
	var sb strings.Builder
	for i, c := range cuts {
		sb.WriteString(string(c))
		m.ends[i] = int32(sb.Len())
	}
	m.names = sb.String()
	return m
}

func (m *hotMix) event(rng *rand.Rand, sld dnsmsg.Name, qtype dnsmsg.Type) *trace.Event {
	var q dnsmsg.Msg
	q.ID = uint16(rng.Intn(1 << 16))
	q.SetQuestion(dnsmsg.Name("www."+string(sld)), qtype)
	q.SetEDNS(1232, false)
	wire, err := q.Pack()
	if err != nil {
		panic(err) // names come from a parsed zone, so they always pack
	}
	return &trace.Event{Src: m.srcs[rng.Intn(len(m.srcs))], Dst: workload.ServerAddr, Proto: trace.UDP, Wire: wire}
}

func qtypeOf(rng *rand.Rand) dnsmsg.Type {
	if rng.Float64() < 0.8 {
		return dnsmsg.TypeA
	}
	return dnsmsg.TypeAAAA
}

// trace draws dur of queries at exactly rate queries/s.
func (m *hotMix) trace(seed int64, rate float64, dur time.Duration) []*trace.Event {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	events := make([]*trace.Event, n)
	for i := range events {
		var sld dnsmsg.Name
		if rng.Float64() < hotShare {
			u := rng.Float64()
			sld = m.hot[int(u*u*float64(len(m.hot)))]
		} else {
			i, start := rng.Intn(len(m.ends)), int32(0)
			if i > 0 {
				start = m.ends[i-1]
			}
			sld = dnsmsg.Name(m.names[start:m.ends[i]])
		}
		events[i] = m.event(rng, sld, qtypeOf(rng))
	}
	retime(events, rate, rng)
	return events
}

// warmup asks every hot (name, qtype) three times, so the answer cache
// has admitted the hot set before the measured steps start.
func (m *hotMix) warmup(seed int64, rate float64) []*trace.Event {
	rng := rand.New(rand.NewSource(seed))
	var events []*trace.Event
	for rep := 0; rep < 3; rep++ {
		for _, sld := range m.hot {
			events = append(events, m.event(rng, sld, dnsmsg.TypeA), m.event(rng, sld, dnsmsg.TypeAAAA))
		}
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	retime(events, rate, rng)
	return events
}

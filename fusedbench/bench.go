package main

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
)

// SLO a staircase step must meet: latency p99 from intended send time
// and the share of trace queries without a valid answer.
const (
	sloLatencyP99 = 5 * time.Millisecond
	sloFailRatio  = 0.005
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	spans             string // span file of a traced run
}

func (r *result) output() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.metrics}
}

// bench is the state of one run.
type bench struct {
	opts  options
	w     workloadSpec
	dir   string
	procs int // GOMAXPROCS of this process and of the server
	nproc int
	tr    *tracer

	// The base step is -seconds of load cut into baseRuns runs of about
	// three seconds: fresh queries for each run, one more sample of the
	// per-run figures (latency, steal) for the medians.
	baseRuns int

	srv    *liveServer
	in     *inputs
	setups []float64
	result *result

	untraced, traced *measurement
	recon            []reconRow
}

// inputs are the generated files of a run.
type inputs struct {
	zone    string
	zoneSHA string
	probe   []byte
	want    []byte
	srcs    []netip.AddrPort
	mix     *hotMix // tld-hot only
	base    []traceFile
	warm    *traceFile // tld-hot only
	steps   map[int]traceFile
}

func (b *bench) stopServer() {
	b.srv.stop()
	b.srv = nil
}

func (b *bench) execute(ctx context.Context) error {
	b.tr.on = b.opts.traced
	defer b.tr.begin("run")()
	if err := b.prepare(); err != nil {
		return err
	}
	if err := b.setup(ctx); err != nil {
		return err
	}

	// E2E metrics always come from a run with tracing off.
	b.tr.on = false
	m, err := b.measure(ctx, false)
	if err != nil {
		return err
	}
	b.untraced = m
	b.tr.on = b.opts.traced
	for _, s := range m.base {
		if s.answered == 0 || s.serverDelta("server.responses") == 0 {
			return fmt.Errorf("base run %s got no answers", s.name)
		}
		b.result.attempted += s.queries
		b.result.failed += s.unresolved
	}
	if !b.opts.traced {
		b.e2e(m)
	}

	ms := []*measurement{m}
	if b.opts.traced {
		if b.traced, err = b.measure(ctx, true); err != nil {
			return err
		}
		ms = append(ms, b.traced)
	}
	p, err := b.gate(ctx, ms)
	if err != nil {
		return err
	}
	if b.opts.traced {
		return b.layerPasses(p)
	}
	return nil
}

// prepare generates the zone (once per checkout) and the run's traces,
// and computes the probe answer the set-up waits for.
func (b *bench) prepare() error {
	defer b.tr.begin("gen")()
	sc := b.opts.scale
	zpath, err := zoneFile(filepath.Join(b.opts.work, "inputs"), b.w, sc)
	if err != nil {
		return err
	}
	sum, err := fileSHA256(zpath)
	if err != nil {
		return err
	}
	in := &inputs{zone: zpath, zoneSHA: sum, srcs: sources(b.nproc), steps: map[int]traceFile{}}
	b.in = in

	p, err := loadInproc(zpath)
	if err != nil {
		return err
	}
	var q dnsmsg.Msg
	q.ID = 0x5e7a
	q.SetQuestion(p.z.Origin, dnsmsg.TypeSOA)
	if in.probe, err = q.Pack(); err != nil {
		return err
	}
	if in.want, err = p.answer(in.probe, trace.UDP, nil); err != nil {
		return err
	}
	in.want = append([]byte(nil), in.want...)

	if b.w.hot {
		in.mix = newHotMix(p.z.Cuts(), sc.hotNames, b.opts.seed, in.srcs)
		warm, err := writeTrace(filepath.Join(b.dir, "warmup.trace"), in.mix.warmup(b.opts.seed, sc.baseRate))
		if err != nil {
			return err
		}
		in.warm = &warm
	}
	// Drop the in-process zone (600k records for tld-hot) before any
	// measurement, so the replay's garbage collector never scans it.
	p = nil
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// nextBase generates the trace of the next base-step run. Every run,
// repeats and the traced pass included, gets fresh queries, so the
// server's answer cache never sees a trace twice.
func (b *bench) nextBase() (traceFile, error) {
	i := len(b.in.base)
	defer b.tr.begin(fmt.Sprintf("gen.base%d", i))()
	secs := b.opts.seconds / b.baseRuns
	seed := b.opts.seed<<16 + int64(i)
	var events []*trace.Event
	if b.w.hot {
		events = b.in.mix.trace(seed, b.opts.scale.baseRate, time.Duration(secs)*time.Second)
	} else {
		events = rootBase(seed, secs, b.opts.scale, b.w.proto, b.in.srcs)
	}
	tf, err := writeTrace(filepath.Join(b.dir, fmt.Sprintf("base%d.trace", i)), events)
	if err != nil {
		return traceFile{}, err
	}
	b.in.base = append(b.in.base, tf)
	return tf, nil
}

// stepTrace returns (generating on first use) staircase step k's trace.
func (b *bench) stepTrace(k int, rate float64) (traceFile, error) {
	if tf, ok := b.in.steps[k]; ok {
		return tf, nil
	}
	defer b.tr.begin(fmt.Sprintf("gen.step%02d", k))()
	var events []*trace.Event
	if b.w.hot {
		events = b.in.mix.trace(b.opts.seed<<16+0x8000+int64(k), rate, b.opts.scale.stepLen)
	} else {
		var err error
		if events, err = rootStep(b.opts.seed, k, rate, b.opts.scale, b.w.proto, b.in.srcs); err != nil {
			return traceFile{}, err
		}
	}
	tf, err := writeTrace(filepath.Join(b.dir, fmt.Sprintf("step%02d.trace", k)), events)
	if err != nil {
		return traceFile{}, err
	}
	b.in.steps[k] = tf
	return tf, nil
}

// setup spawns the server several times and keeps the last one; setup_s
// is the median spawn→first-correct-answer time.
//
// A spawn during which the hypervisor took more than maxSetupSteal of the
// host's CPU time is repeated, up to twice the planned count, and the
// median is over the planned count of spawns with the least steal: a few
// milliseconds of steal double the ~6 ms it takes to load a small zone.
func (b *bench) setup(ctx context.Context) error {
	n := b.opts.scale.setups
	if b.w.hot {
		n = b.opts.scale.hotSetups
	}
	type spawn struct {
		d     time.Duration
		steal float64
	}
	var spawns []spawn
	for clean := 0; clean < n && len(spawns) < 2*n; {
		b.stopServer()
		end := b.tr.begin("setup")
		t0 := hostSteal()
		srv, d, err := startServer(ctx, b.opts.serverBin, []string{b.in.zone}, b.procs, b.dir, b.in.probe, b.in.want)
		steal := hostSteal().since(t0)
		end()
		if err != nil {
			return err
		}
		b.srv = srv
		spawns = append(spawns, spawn{d, steal})
		if steal <= maxSetupSteal {
			clean++
		}
	}
	sort.SliceStable(spawns, func(i, j int) bool { return spawns[i].steal < spawns[j].steal })
	for _, s := range spawns[:n] {
		b.setups = append(b.setups, s.d.Seconds())
	}
	return nil
}

// maxSetupSteal is the host steal share above which a spawn is repeated.
const maxSetupSteal = 0.02

// stepResult is one Engine.Run against the live server.
type stepResult struct {
	name    string
	rate    float64 // offered queries/s (the base step: the model's median)
	file    traceFile
	queries int

	rep          *replay.Report
	rcodes       map[string]uint64 // live replay.rcode.* counts
	bad          uint64
	wall         time.Duration
	benchCPU     time.Duration
	serverCPU    time.Duration
	vars0, vars1 obs.Snapshot

	// steal is the share of the host's CPU time the hypervisor took from
	// this machine during the run (from /proc/stat); a shared host's
	// stalls show here, not in the program's own counters.
	steal float64

	answered uint64
	failed   int // trace queries replay got no valid answer for
	// unresolved is how many of the failed queries still had no answer
	// after retryLost re-asked them (failed when nothing was re-asked).
	unresolved int
	// Microseconds. latency = SentOffset − TraceOffset + RTT (answered
	// queries), lateness = SentOffset − TraceOffset (sent queries).
	latP50, latP90, latP99, latP999 float64
	lateP50, lateP99                float64
	rttP50                          float64
}

func (s *stepResult) failRatio() float64 { return float64(s.failed) / float64(s.queries) }

func (s *stepResult) passes() bool {
	return s.latP99 <= float64(sloLatencyP99.Microseconds()) && s.failRatio() <= sloFailRatio
}

// serverDelta is the growth of a server counter across the step.
func (s *stepResult) serverDelta(name string) int64 {
	return int64(s.vars1.Counters[name]) - int64(s.vars0.Counters[name])
}

// cpuTicks is one reading of the host-wide steal and total tick counts.
type cpuTicks struct{ steal, total uint64 }

func hostSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the steal share of the ticks between two readings.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runStep replays one trace file against the live server: the trace is
// streamed through trace.NewBinaryReader inside Engine.Run, so reading
// it is on the measured path.
//
// With retry set, the queries the run left unanswered are re-asked
// afterwards (retryLost), outside every measured window.
func (b *bench) runStep(ctx context.Context, name string, tf traceFile, rate float64, retry bool) (*stepResult, error) {
	defer b.tr.begin("replay." + name)()
	f, err := os.Open(tf.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg := obs.NewRegistry()
	eng, err := replay.New(replay.Config{
		Server:                 b.srv.addr,
		Mode:                   replay.Timed,
		Distributors:           1,
		QueriersPerDistributor: b.nproc,
		Obs:                    reg,
	})
	if err != nil {
		return nil, err
	}
	s := &stepResult{name: name, rate: rate, file: tf, queries: tf.queries}
	if s.vars0, err = b.srv.vars(); err != nil {
		return nil, err
	}
	scpu0, err := b.srv.cpu()
	if err != nil {
		return nil, err
	}
	steal0 := hostSteal()
	cpu0 := selfCPU()
	t0 := time.Now()
	s.rep, err = eng.Run(ctx, trace.NewBinaryReader(f))
	s.wall = time.Since(t0)
	s.benchCPU = selfCPU() - cpu0
	s.steal = hostSteal().since(steal0)
	if err != nil {
		return nil, err
	}
	scpu1, err := b.srv.cpu()
	if err != nil {
		return nil, err
	}
	s.serverCPU = scpu1 - scpu0
	if s.vars1, err = b.srv.vars(); err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	s.bad = snap.Counters["replay.bad_responses"]
	s.rcodes = map[string]uint64{}
	for k, v := range snap.Counters {
		if rc, ok := strings.CutPrefix(k, "replay.rcode."); ok {
			s.rcodes[rc] = v
		}
	}
	s.summarize()
	if retry {
		if err := b.retryLost(ctx, s); err != nil {
			return nil, err
		}
	}
	// Only the summary is kept: per-query results of earlier steps would
	// otherwise grow the heap every later step's collector scans.
	s.rep.Results = nil
	return s, nil
}

func (s *stepResult) summarize() {
	var lat, late, rtt []float64
	for _, r := range s.rep.Results {
		l := r.SentOffset - r.TraceOffset
		late = append(late, us(l))
		if r.RTT >= 0 {
			lat = append(lat, us(l+r.RTT))
			rtt = append(rtt, us(r.RTT))
		}
	}
	s.answered = s.rep.Responses - s.bad
	s.failed = s.queries - int(s.answered)
	s.unresolved = s.failed
	s.latP50, s.latP90, s.latP99, s.latP999 = pct(lat, 0.5), pct(lat, 0.9), pct(lat, 0.99), pct(lat, 0.999)
	s.lateP50, s.lateP99 = pct(late, 0.5), pct(late, 0.99)
	s.rttP50 = pct(rtt, 0.5)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct is the nearest-rank percentile; it sorts xs in place. An empty
// sample reads as +Inf so it can never pass a latency limit.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// measurement is one e2e pass: (tld-hot) warm-up, the runs of the
// fixed-rate base step, then the staircase.
type measurement struct {
	warm   *stepResult
	base   []*stepResult
	rss    int64         // server VmHWM after the base runs
	steps  []*stepResult // staircase steps in run order, retries included
	slo    float64
	capped bool // the staircase ran out of steps or time before a step failed
}

func (m *measurement) all() []*stepResult {
	var out []*stepResult
	if m.warm != nil {
		out = append(out, m.warm)
	}
	out = append(out, m.base...)
	return append(out, m.steps...)
}

// stepAttempts is how often a staircase step is tried before it counts
// as failed: on a small shared host a single attempt's p99 moves by
// milliseconds from scheduling alone, so a step passes when any of its
// attempts does.
const stepAttempts = 3

// staircaseBudget bounds the staircase's wall time.
const staircaseBudget = time.Minute

// measure runs the base step and, when staircase is set, the staircase
// above it.
func (b *bench) measure(ctx context.Context, staircase bool) (*measurement, error) {
	defer b.tr.begin("e2e")()
	sc := b.opts.scale
	m := &measurement{}
	var err error
	if b.in.warm != nil {
		if m.warm, err = b.runStep(ctx, "warmup", *b.in.warm, sc.baseRate, false); err != nil {
			return nil, err
		}
	}
	pass := false
	for i := 0; i < b.baseRuns; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tf, err := b.nextBase()
		if err != nil {
			return nil, err
		}
		s, err := b.runStep(ctx, fmt.Sprintf("base%d", i), tf, sc.baseRate, true)
		if err != nil {
			return nil, err
		}
		m.base = append(m.base, s)
		pass = pass || s.passes()
	}
	// Read before the staircase, so memory compares at a fixed amount of
	// traffic: every query can add an answer-cache entry.
	if m.rss, err = b.srv.peakRSS(); err != nil {
		return nil, err
	}
	if !pass || !staircase {
		return m, nil
	}
	m.slo = sc.baseRate
	start := time.Now()
	for k := 1; k <= sc.maxSteps; k++ {
		if time.Since(start) > staircaseBudget {
			break // keeps a traced run inside its time limit; capped says so
		}
		rate := sc.baseRate * math.Pow(stepFactor, float64(k))
		tf, err := b.stepTrace(k, rate)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pass := false
		for attempt := 0; attempt < stepAttempts && !pass; attempt++ {
			st, err := b.runStep(ctx, fmt.Sprintf("step%02d", k), tf, rate, false)
			if err != nil {
				return nil, err
			}
			m.steps = append(m.steps, st)
			pass = st.passes()
		}
		if !pass {
			return m, nil
		}
		m.slo = rate
	}
	m.capped = true
	return m, nil
}

// med is the median of f over the runs.
func med(runs []*stepResult, f func(*stepResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = f(s)
	}
	return median(xs)
}

// window is runs pooled into one measurement window.
type window struct {
	queries, answered   int
	responses           int64 // responses the server sent (its /vars)
	serverCPU, benchCPU time.Duration
}

func pool(runs []*stepResult) window {
	var w window
	for _, s := range runs {
		w.queries += s.queries
		w.answered += int(s.answered)
		w.responses += s.serverDelta("server.responses")
		w.serverCPU += s.serverCPU
		w.benchCPU += s.benchCPU
	}
	return w
}

// serverNsPerQ divides by the responses the server sent, not by those
// replay received: a response lost on the way back cost the server the
// same work.
func (w window) serverNsPerQ() float64  { return float64(w.serverCPU) / float64(w.responses) }
func (w window) replayNsPerQ() float64  { return float64(w.benchCPU) / float64(w.queries) }
func (w window) answeredRatio() float64 { return float64(w.answered) / float64(w.queries) }

// busy is the share of procs cores a CPU time fills over the run.
func (s *stepResult) busy(cpu time.Duration, procs int) float64 {
	return cpu.Seconds() / (s.wall.Seconds() * float64(procs))
}

// e2e fills the end-to-end metrics from an untraced measurement: the
// base runs pooled into one window, set-up and memory.
func (b *bench) e2e(m *measurement) {
	put := func(name string, v float64, unit string) { b.result.metrics[name] = metric{v, unit} }
	w := pool(m.base)
	put("setup_s", median(b.setups), "s")
	put("server_cpu_ns_per_q", w.serverNsPerQ(), "ns")
	put("replay_cpu_ns_per_q", w.replayNsPerQ(), "ns")
	put("server_rss_mb", float64(m.rss)/(1<<20), "MiB")
}

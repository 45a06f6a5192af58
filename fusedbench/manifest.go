package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"ldplayer/internal/trace"
)

// reconRow is one line of the reconciliation table: a stage cost that
// should add up to an e2e CPU cost, or the residual nothing explains.
type reconRow struct {
	Side     string  `json:"side"` // "replay" or "server"
	Stage    string  `json:"stage"`
	NS       float64 `json:"ns_per_q"`
	Residual bool    `json:"residual,omitempty"`
}

// reconcile lays the stage costs of a traced run against the untraced
// base step's CPU per query on each side. The replay side is trace read
// plus Conn.Send; its residual holds the response path (read loop,
// decode, matching) and pacing. The server side is datagram read,
// decode, HandleQueryWire and datagram write; on root-tcp the stream
// path replaces the datagram I/O, which has no stage of its own, so it
// stays in the residual.
func (b *bench) reconcile(read, sendUDP, sendTCP float64, batch1 [2]float64, unpack, handle float64) {
	w := pool(b.untraced.base)
	replayCPU, serverCPU := w.replayNsPerQ(), w.serverNsPerQ()
	row := func(side, stage string, ns float64, residual bool) {
		b.recon = append(b.recon, reconRow{side, stage, ns, residual})
	}
	send, sendName := sendUDP, "transport.conn_send_udp_ns"
	if b.w.proto == trace.TCP {
		send, sendName = sendTCP, "transport.conn_send_tcp_ns"
	}
	row("replay", "replay_cpu_ns_per_q (e2e)", replayCPU, false)
	row("replay", "trace.read_ns_per_event", read, false)
	row("replay", sendName, send, false)
	row("replay", "replay.unexplained_ns_per_q", replayCPU-read-send, true)

	row("server", "server_cpu_ns_per_q (e2e)", serverCPU, false)
	explained := unpack + handle
	if b.w.proto == trace.UDP {
		row("server", "transport.batch_read_ns_per_dgram.fill1", batch1[1], false)
		row("server", "transport.batch_write_ns_per_dgram.fill1", batch1[0], false)
		explained += batch1[0] + batch1[1]
	}
	row("server", "dnsmsg.unpack_ns_per_q", unpack, false)
	row("server", "server.handle_ns_per_q", handle, false)
	row("server", "server.unexplained_ns_per_q", serverCPU-explained, true)
}

// stepSummary is one step's line in the manifest.
type stepSummary struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate_qps"`
	Queries int     `json:"queries"`
	Failed  int     `json:"failed"`
	// Unresolved counts failed queries still unanswered after a retry
	// (base runs only; equal to failed elsewhere).
	Unresolved int     `json:"unresolved"`
	LatP99     float64 `json:"latency_p99_us"`
	Pass       bool    `json:"pass"`
	TraceSHA   string  `json:"trace_sha256"`
	ServerCPU  float64 `json:"server_busy_frac"`
	ReplayCPU  float64 `json:"replay_busy_frac"`
	Steal      float64 `json:"host_steal_frac"`
}

func (b *bench) summary(m *measurement) []stepSummary {
	var out []stepSummary
	for _, s := range m.all() {
		out = append(out, stepSummary{
			Name: s.name, Rate: s.rate, Queries: s.queries, Failed: s.failed, Unresolved: s.unresolved,
			LatP99: s.latP99, Pass: s.passes(), TraceSHA: s.file.sha256,
			ServerCPU: s.busy(s.serverCPU, b.procs),
			ReplayCPU: s.busy(s.benchCPU, b.procs),
			Steal:     s.steal,
		})
	}
	return out
}

// writeManifest records how the run was made next to its outputs, and
// prints the reconciliation table of a traced run to stderr.
func (b *bench) writeManifest() error {
	commit, dirty := gitState()
	base := b.untraced.base
	sb := med(base, func(s *stepResult) float64 { return s.busy(s.serverCPU, 1) })
	rb := med(base, func(s *stepResult) float64 { return s.busy(s.benchCPU, 1) })
	busier := fmt.Sprintf("%s: server busier (%.2f vs %.2f cores at the base step)", b.w.name, sb, rb)
	if rb > sb {
		busier = fmt.Sprintf("%s: replay busier (%.2f vs %.2f cores at the base step)", b.w.name, rb, sb)
	}
	man := map[string]any{
		"workload":      b.w.name,
		"seed":          b.opts.seed,
		"seconds":       b.opts.seconds,
		"traced":        b.opts.traced,
		"commit":        commit,
		"dirty":         dirty,
		"go_version":    runtime.Version(),
		"nproc":         b.nproc,
		"cpu_model":     cpuModel(),
		"kernel":        strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"gomaxprocs":    map[string]int{"replay": b.procs, "server": b.procs},
		"link":          "loopback, not a real link",
		"zone_file":     filepath.Base(b.in.zone),
		"zone_sha256":   b.in.zoneSHA,
		"base_rate_qps": b.opts.scale.baseRate,
		"steps":         b.summary(b.untraced),
		"busier_side":   busier,
		"setup_s":       b.setups,
		"metrics":       b.result.metrics,
	}
	if b.opts.traced {
		var rates []float64
		for _, s := range b.traced.steps {
			rates = append(rates, s.rate)
		}
		man["staircase_rates"] = rates
		man["staircase_slo_qps"] = b.traced.slo
		man["staircase_capped"] = b.traced.capped
		man["traced_steps"] = b.summary(b.traced)
		man["reconciliation"] = b.recon
		fmt.Fprintf(os.Stderr, "reconciliation (%s, ns per query):\n", b.w.name)
		for _, r := range b.recon {
			fmt.Fprintf(os.Stderr, "  %-7s %-44s %10.0f\n", r.Side, r.Stage, r.NS)
		}
		fmt.Fprintf(os.Stderr, "  loss split at the base step: inbound %v, outbound %v\n",
			b.result.metrics["server.loss_inbound"].Value, b.result.metrics["server.loss_outbound"].Value)
	}
	fmt.Fprintln(os.Stderr, busier)
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.dir, "manifest.json"), data, 0o644)
}

// gitState reports the commit and whether the tree is dirty, or
// "unknown" outside a git checkout.
func gitState() (string, any) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)", nil
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return strings.TrimSpace(string(out)), nil
	}
	return strings.TrimSpace(string(out)), len(status) > 0
}

func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(data)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// removeTraces deletes a run's generated trace files.
func removeTraces(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// Command fusedbench is LDplayer's end-to-end benchmark: it replays a
// generated trace through replay.Engine in its own process against a
// live ldp-server child process over loopback, checks the answers, and
// prints the metrics named in BENCHMARK.json. See README.md for the
// workloads, the metric definitions and the per-layer ledger.
//
//	fusedbench -server-bin ldp-server -work .bench_build \
//	    --workload root-udp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// A failed correctness check exits 1 and prints no result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "", "workload: root-udp, root-tcp or tld-hot")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the fixed-rate measurement step, in seconds")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and tracing overhead")
	serverBin := flag.String("server-bin", "", "path to the ldp-server binary")
	work := flag.String("work", ".bench_build", "directory for inputs, logs, manifests and spans")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, options{
		workload:  *workloadName,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traced == 1,
		serverBin: *serverBin,
		work:      *work,
		scale:     fullScale,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options is one benchmark invocation.
type options struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	serverBin string
	work      string
	scale     scale
}

// run executes one workload end to end: inputs, set-up, the untraced
// measurement, the correctness gate and, for a traced run, the repeat
// with spans on plus the per-layer passes. It writes the manifest (and
// the span file) under opts.work and returns the metrics.
func run(ctx context.Context, opts options) (*result, error) {
	w, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want root-udp, root-tcp or tld-hot)", opts.workload)
	}
	if opts.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if opts.serverBin == "" {
		return nil, fmt.Errorf("-server-bin is required")
	}
	runDir := filepath.Join(opts.work, "runs", fmt.Sprintf("%s-seed%d-trace%d-pid%d",
		w.name, opts.seed, btoi(opts.traced), os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		opts:     opts,
		w:        w,
		dir:      runDir,
		baseRuns: max(1, opts.seconds/3),
		procs:    runtime.GOMAXPROCS(0),
		nproc:    runtime.NumCPU(),
		tr:       newTracer(fmt.Sprintf("%s/%d", w.name, opts.seed)),
		result:   &result{metrics: map[string]metric{}},
	}
	defer b.stopServer()
	if err := b.execute(ctx); err != nil {
		return nil, err
	}
	if err := b.writeManifest(); err != nil {
		return nil, err
	}
	if opts.traced {
		path := filepath.Join(runDir, "spans.json")
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		b.result.spans = path
		fmt.Println("spans:", path)
		fmt.Println("tracing overhead:", b.result.metrics["tracing.overhead_frac"].Value)
	}
	// The generated trace files are large and reproducible from the
	// seed; the manifest keeps their digests.
	if err := removeTraces(runDir); err != nil {
		return nil, err
	}
	return b.result, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

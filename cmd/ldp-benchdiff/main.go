// Command ldp-benchdiff compares two `go test -bench -benchmem` output
// files and fails when a benchmark regressed. It is the CI gate behind
// the committed bench.out baseline:
//
//	go test -bench=. -benchmem -run='^$' ./internal/transport > bench.new
//	ldp-benchdiff -baseline bench.out -new bench.new -match 'internal/transport\.BenchmarkExchange'
//
// allocs/op is the hard gate: a benchmark whose allocations grow more
// than -max-allocs-regress (default 20%) fails the run. ns/op is
// compared but report-only, because wall-clock on shared CI hardware is
// too noisy to gate on. Allocation counts of concurrent benchmarks move
// with GOMAXPROCS, so runs taken at different core counts (the -N name
// suffix; none means 1) are refused rather than compared.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurements from one file.
type result struct {
	procs       int // GOMAXPROCS the benchmark ran at
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	// Every "value unit" pair on the line, keyed by unit. Beyond the
	// gated allocs/op this carries the report-only throughput metrics:
	// qps/core from the serving benchmarks, recs/s and MB/s from the
	// zone-ingestion and pcap-scan benchmarks. All are hardware-bound,
	// so absolute values are never gated across runs — only the
	// same-run ratios expressed via -speedup.
	metrics map[string]float64
}

func (r result) metric(unit string) (float64, bool) {
	v, ok := r.metrics[unit]
	return v, ok
}

// parseBench reads `go test -bench` output, keying each benchmark as
// "<pkg>.<name>" with the GOMAXPROCS suffix stripped and kept in
// result.procs (1 when the name has no suffix, as go test prints it at
// GOMAXPROCS=1).
func parseBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := map[string]result{}
	pkg := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		procs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		r := result{procs: procs, metrics: map[string]float64{}}
		// After the iteration count come "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.metrics[fields[i+1]] = v
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		out[pkg+"."+name] = r
	}
	return out, sc.Err()
}

// speedupSpec is one -speedup requirement: within the NEW run, the
// fast benchmark's metric must be at least min times the slow one's.
// Same-run ratios cancel out the hardware, so unlike cross-run ns/op
// they are stable enough to gate on — this is how CI enforces "the
// streaming zone parser stays >= 10x the classic one".
type speedupSpec struct {
	metric     string
	fast, slow string
	min        float64
}

// parseSpeedup parses "metric:FASTKEY:SLOWKEY:MIN". Colons cannot
// appear in benchmark keys (pkg paths and names use '/' and '.') or in
// metric units, so the format is unambiguous.
func parseSpeedup(s string) (speedupSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return speedupSpec{}, fmt.Errorf("want metric:FASTKEY:SLOWKEY:MIN, got %q", s)
	}
	min, err := strconv.ParseFloat(parts[3], 64)
	if err != nil || min <= 0 {
		return speedupSpec{}, fmt.Errorf("bad minimum ratio %q", parts[3])
	}
	return speedupSpec{metric: parts[0], fast: parts[1], slow: parts[2], min: min}, nil
}

// sameProcs refuses a comparison of one benchmark measured at different
// GOMAXPROCS on the two sides.
func sameProcs(key string, base, now result) error {
	if base.procs != now.procs {
		return fmt.Errorf("%s: baseline ran at GOMAXPROCS=%d, new run at %d; allocation counts are not comparable across core counts, so rerun with -cpu %d",
			key, base.procs, now.procs, base.procs)
	}
	return nil
}

func pct(base, now float64) float64 {
	if base == 0 {
		if now == 0 {
			return 0
		}
		return 1 // 0 -> anything is treated as a 100% regression
	}
	return (now - base) / base
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-benchdiff: ")

	baseline := flag.String("baseline", "bench.out", "committed baseline bench output")
	newFile := flag.String("new", "bench.new", "freshly measured bench output")
	match := flag.String("match", "", "regexp selecting which benchmark keys are gated (empty gates all)")
	maxAllocs := flag.Float64("max-allocs-regress", 0.20, "fail when allocs/op grows more than this fraction")
	var speedups []speedupSpec
	flag.Func("speedup", "metric:FASTKEY:SLOWKEY:MIN — require fast >= MIN*slow on metric within the new run (repeatable)", func(s string) error {
		sp, err := parseSpeedup(s)
		if err != nil {
			return err
		}
		speedups = append(speedups, sp)
		return nil
	})
	flag.Parse()

	var sel *regexp.Regexp
	if *match != "" {
		var err error
		if sel, err = regexp.Compile(*match); err != nil {
			log.Fatalf("bad -match: %v", err)
		}
	}
	base, err := parseBench(*baseline)
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	now, err := parseBench(*newFile)
	if err != nil {
		log.Fatalf("new: %v", err)
	}
	if len(base) == 0 {
		log.Fatalf("baseline %s has no benchmarks", *baseline)
	}

	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	failed := 0
	compared := 0
	for _, k := range keys {
		if sel != nil && !sel.MatchString(k) {
			continue
		}
		b := base[k]
		n, ok := now[k]
		if !ok {
			log.Printf("WARN %s: in baseline but not in new run", k)
			continue
		}
		if err := sameProcs(k, b, n); err != nil {
			log.Fatal(err)
		}
		compared++
		status := "ok  "
		allocsDelta := pct(b.allocsPerOp, n.allocsPerOp)
		if n.hasAllocs && b.hasAllocs && allocsDelta > *maxAllocs {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-60s allocs/op %8.1f -> %8.1f (%+6.1f%%)   ns/op %10.0f -> %10.0f (%+6.1f%%, informational)",
			status, k, b.allocsPerOp, n.allocsPerOp, 100*allocsDelta,
			b.nsPerOp, n.nsPerOp, 100*pct(b.nsPerOp, n.nsPerOp))
		for _, unit := range []string{"qps/core", "recs/s", "MB/s"} {
			bv, bok := b.metric(unit)
			nv, nok := n.metric(unit)
			if bok && nok {
				fmt.Printf("   %s %9.0f -> %9.0f (%+6.1f%%, informational)",
					unit, bv, nv, 100*pct(bv, nv))
			}
		}
		fmt.Println()
	}
	for k := range now {
		if _, ok := base[k]; !ok && (sel == nil || sel.MatchString(k)) {
			log.Printf("note: %s is new (no baseline); run `make bench` to record it", k)
		}
	}

	// Speedup gates: same-run ratios in the new measurements.
	for _, sp := range speedups {
		fastRes, ok := now[sp.fast]
		if !ok {
			log.Fatalf("speedup: %s not found in new run", sp.fast)
		}
		slowRes, ok := now[sp.slow]
		if !ok {
			log.Fatalf("speedup: %s not found in new run", sp.slow)
		}
		fv, ok := fastRes.metric(sp.metric)
		if !ok {
			log.Fatalf("speedup: %s has no %s metric", sp.fast, sp.metric)
		}
		sv, ok := slowRes.metric(sp.metric)
		if !ok || sv == 0 {
			log.Fatalf("speedup: %s has no usable %s metric", sp.slow, sp.metric)
		}
		ratio := fv / sv
		status := "ok  "
		if ratio < sp.min {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s speedup %s: %s / %s = %.1fx (need >= %.1fx)\n",
			status, sp.metric, sp.fast, sp.slow, ratio, sp.min)
		compared++
	}

	if compared == 0 {
		log.Fatal("no benchmarks matched; nothing compared")
	}
	if failed > 0 {
		log.Fatalf("%d check(s) failed: allocs/op regressed more than %.0f%% or a -speedup ratio was missed (refresh the baseline with `make bench` if intentional)",
			failed, *maxAllocs*100)
	}
	fmt.Printf("%d benchmark(s) within budget\n", compared)
}

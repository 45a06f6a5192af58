# LDplayer (Go reproduction) build targets.

GO ?= go

.PHONY: all build test race bench bench-check bench-smoke vet lint check fuzz-smoke experiments tools clean

# Per-target budget for the fuzz smoke pass (see fuzz-smoke).
FUZZTIME ?= 30s

all: build test

build:
	$(GO) build ./...

tools:
	$(GO) install ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: go vet plus ldp-vet, which enforces
# LDplayer's architectural invariants (transport-only I/O, simulated
# clock discipline, metric naming, stats atomicity, error checking,
# mutex/blocking hygiene, message-pool ownership, shard confinement,
# transient-buffer aliasing). -stale also fails on //ldp:nolint
# comments that no longer suppress anything, so suppressions cannot
# rot. See DESIGN.md "Static analysis & fuzzing".
lint: vet
	$(GO) run ./cmd/ldp-vet -dir . -stale -time

# Everything CI runs, in one target.
check: build vet lint test race

# Short fuzz pass over the wire-format decoders (plus the differential
# targets: pooled-vs-reference decode, production-vs-reference encode);
# CI runs this on every push. Crash
# inputs land in <pkg>/testdata/fuzz/ — commit them so they become
# permanent regression seeds.
fuzz-smoke:
	$(GO) test -fuzz=FuzzMsgRoundTrip -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz=FuzzUnpackPooledEquivalence -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz=FuzzNameUnpack -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz=FuzzPackDifferential -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz='^FuzzZoneParse$$' -fuzztime=$(FUZZTIME) ./internal/zone
	$(GO) test -fuzz=FuzzZoneParseDifferential -fuzztime=$(FUZZTIME) ./internal/zone
	$(GO) test -fuzz='^FuzzPCAPRead$$' -fuzztime=$(FUZZTIME) ./internal/pcap
	$(GO) test -fuzz=FuzzPCAPReadZeroCopy -fuzztime=$(FUZZTIME) ./internal/pcap

# Benchmarks (allocs/op on the transport exchange hot path included);
# results refresh the committed bench.out baseline that CI gates
# against. The redirect (not a pipe) keeps go test's exit status: a
# failing benchmark fails the target instead of being masked by tee.
# The baseline is recorded at GOMAXPROCS=1 (-cpu 1), whatever the
# machine's core count, so bench-check compares like with like.
bench:
	$(GO) test -bench=. -benchmem -cpu 1 -run='^$$' ./... > bench.tmp || { cat bench.tmp; rm -f bench.tmp; exit 1; }
	mv bench.tmp bench.out
	cat bench.out

# Re-measure the gated hot-path benchmarks (transport exchange, message
# codec, server answer cache, zone lookup, cluster replay, replay data
# plane) and compare against the committed baseline; fails on >20%
# allocs/op regression. These packages are the serve/replay fast path
# the pooled codec and answer cache keep allocation-free, plus the
# netsim cluster engine whose per-query scheduling must stay
# allocation-free. The second -speedup gates the batched replay engine
# against its per-item reference plane on the in-process fabric pair
# (same run, same fabric — hardware cancels out; see bench_test.go for
# why the loopback variants are reported but not gated). The third
# holds the map-free wire encoder to at least twice the messages/s of
# the map-based reference encoder on DNSSEC-signed responses. Like
# bench, it measures at -cpu 1: ldp-benchdiff refuses to compare runs
# taken at different GOMAXPROCS.
bench-check:
	$(GO) test -bench=. -benchmem -cpu 1 -run='^$$' ./internal/transport ./internal/dnsmsg ./internal/server ./internal/zone ./internal/pcap ./internal/netsim ./internal/replay > bench.new || { cat bench.new; rm -f bench.new; exit 1; }
	$(GO) run ./cmd/ldp-benchdiff -baseline bench.out -new bench.new -match 'internal/(transport|dnsmsg|server|zone|pcap|netsim|replay)\.' \
		-speedup 'recs/s:ldplayer/internal/zone.BenchmarkZoneParseStreaming:ldplayer/internal/zone.BenchmarkZoneParseClassic:10' \
		-speedup 'qps:ldplayer/internal/replay.BenchmarkReplayFastUDP:ldplayer/internal/replay.BenchmarkReplayFastUDPReference:5' \
		-speedup 'msgs/s:ldplayer/internal/dnsmsg.BenchmarkMsgPackDNSSEC:ldplayer/internal/dnsmsg.BenchmarkMsgPackDNSSECReference:2'

# Smoke test of the fused replay→server benchmark (fusedbench/, its own
# module): builds ldp-server, runs every workload briefly, untraced and
# traced, and checks that each metric BENCHMARK.json declares is
# emitted with its unit and that the correctness gate passes. About 20 s.
bench-smoke:
	cd fusedbench && $(GO) test .

# Regenerate every table and figure (about six minutes at small scale).
experiments:
	$(GO) run ./cmd/ldp-experiments -run all -scale small

clean:
	$(GO) clean ./...

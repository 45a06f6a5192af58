// Command ldp-server runs LDplayer's authoritative DNS server: one or
// more zones served over UDP, TCP and optionally TLS (self-signed), with
// the idle-timeout knob the §5.2 experiments sweep. UDP serving is
// sharded: one goroutine per shard, each with its own SO_REUSEPORT
// socket (where the platform supports it), answer cache and counters.
//
// Usage:
//
//	ldp-server -zone root.zone -zone com.zone -udp :5300 -tcp :5300
//	ldp-server -zone example.zone -tls :8530 -tcp-timeout 20s
//	ldp-server -zone example.zone -udp :5300 -udp-shards 8
//
// Zone origins are taken from each file's $ORIGIN directive.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
)

type zoneList []string

func (z *zoneList) String() string     { return strings.Join(*z, ",") }
func (z *zoneList) Set(s string) error { *z = append(*z, s); return nil }

// options is everything main parses from flags, in a form tests can
// construct directly.
type options struct {
	zones      []string
	udpAddr    string
	udpShards  int // 0 = one per schedulable core
	tcpAddr    string
	tlsAddr    string
	timeout    time.Duration
	statsEvery time.Duration
	debugAddr  string
	reg        *obs.Registry
	logf       func(format string, args ...any)
}

// boundAddrs reports where the listeners actually landed (useful when
// the requested port was 0).
type boundAddrs struct {
	UDP, TCP, TLS netip.AddrPort
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-server: ")

	var zones zoneList
	flag.Var(&zones, "zone", "zone file to serve (repeatable; $ORIGIN sets the origin)")
	udpAddr := flag.String("udp", ":5300", "UDP listen address (empty disables)")
	udpShards := flag.Int("udp-shards", 0, "UDP shards, one SO_REUSEPORT socket each (0 = one per core)")
	tcpAddr := flag.String("tcp", ":5300", "TCP listen address (empty disables)")
	tlsAddr := flag.String("tls", "", "TLS listen address with a self-signed certificate (empty disables)")
	timeout := flag.Duration("tcp-timeout", 20*time.Second, "idle timeout for TCP/TLS connections")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval (0 disables)")
	debugAddr := flag.String("debug-addr", "", "HTTP debug endpoint with /vars and /debug/pprof (empty disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := run(ctx, options{
		zones:      zones,
		udpAddr:    *udpAddr,
		udpShards:  *udpShards,
		tcpAddr:    *tcpAddr,
		tlsAddr:    *tlsAddr,
		timeout:    *timeout,
		statsEvery: *statsEvery,
		debugAddr:  *debugAddr,
		reg:        obs.Default,
		logf:       log.Printf,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
}

// run builds the server from opts and serves until ctx is cancelled. If
// ready is non-nil it receives the bound listener addresses once all
// listeners are up — the seam the e2e tests drive.
func run(ctx context.Context, opts options, ready chan<- boundAddrs) error {
	if len(opts.zones) == 0 {
		return fmt.Errorf("at least one -zone is required")
	}
	if opts.logf == nil {
		opts.logf = func(string, ...any) {}
	}
	if opts.reg == nil {
		opts.reg = obs.NewRegistry()
	}
	shards := opts.udpShards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	srv := server.New(server.Config{
		TCPIdleTimeout: opts.timeout,
		UDPWorkers:     shards,
		Obs:            opts.reg,
	})
	if opts.debugAddr != "" {
		_, addr, err := obs.ServeDebug(opts.debugAddr, opts.reg)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		opts.logf("debug http on %s (/vars, /debug/pprof)", addr)
	}
	for _, path := range opts.zones {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		z, err := zone.Parse(f, "")
		f.Close() //ldp:nolint errcheck — read-only file; Close carries no data-loss signal
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if err := z.Validate(); err != nil {
			return fmt.Errorf("validate %s: %w", path, err)
		}
		if err := srv.AddZone(z); err != nil {
			return fmt.Errorf("add %s: %w", path, err)
		}
		opts.logf("serving zone %s (%d records) from %s", z.Origin, z.RecordCount(), path)
	}

	var bound boundAddrs
	errCh := make(chan error, 3)

	if opts.udpAddr != "" {
		conns, addr, err := transport.ListenUDPReusePort(opts.udpAddr, shards)
		if err != nil {
			return fmt.Errorf("udp listen: %w", err)
		}
		defer func() {
			for _, c := range conns {
				c.Close() //ldp:nolint errcheck — shutdown path; the sockets are dead either way
			}
		}()
		bound.UDP = addr
		if len(conns) == 1 && shards > 1 {
			opts.logf("udp on %s (%d shards on one socket; SO_REUSEPORT unavailable)", addr, shards)
			shared := make([]net.PacketConn, shards)
			for i := range shared {
				shared[i] = conns[0]
			}
			conns = shared
		} else {
			opts.logf("udp on %s (%d shards, one socket each)", addr, len(conns))
		}
		go func() { errCh <- srv.ServeUDPShards(ctx, conns) }()
	}
	if opts.tcpAddr != "" {
		ln, addr, err := transport.ListenTCP(opts.tcpAddr)
		if err != nil {
			return fmt.Errorf("tcp listen: %w", err)
		}
		bound.TCP = addr
		opts.logf("tcp on %s (idle timeout %v)", addr, opts.timeout)
		go func() { errCh <- srv.ServeTCP(ctx, ln) }()
	}
	if opts.tlsAddr != "" {
		host, _, err := net.SplitHostPort(opts.tlsAddr)
		if err != nil || host == "" {
			host = "localhost"
		}
		tlsCfg, _, err := server.SelfSignedTLS(host)
		if err != nil {
			return fmt.Errorf("tls cert: %w", err)
		}
		ln, addr, err := transport.ListenTCP(opts.tlsAddr)
		if err != nil {
			return fmt.Errorf("tls listen: %w", err)
		}
		bound.TLS = addr
		opts.logf("tls on %s (self-signed for %q)", addr, host)
		go func() { errCh <- srv.ServeTLS(ctx, ln, tlsCfg) }()
	}
	if ready != nil {
		ready <- bound
	}

	if opts.statsEvery > 0 {
		go func() {
			tick := time.NewTicker(opts.statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					s := srv.Stats()
					opts.logf("queries=%d (udp=%d tcp=%d tls=%d) refused=%d truncated=%d conns: tcp=%d tls=%d",
						s.Queries, s.UDPQueries, s.TCPQueries, s.TLSQueries,
						s.Refused, s.Truncated, s.TCPConnsOpen, s.TLSConnsOpen)
				}
			}
		}()
	}

	select {
	case <-ctx.Done():
		s := srv.Stats()
		opts.logf("final: %d queries, %d responses, %d bytes out", s.Queries, s.Responses, s.BytesOut)
		return nil
	case err := <-errCh:
		if err != nil && ctx.Err() == nil {
			return fmt.Errorf("listener: %w", err)
		}
		return nil
	}
}

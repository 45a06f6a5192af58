package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/transport"
)

// liveServer is one ldp-server child process serving UDP and TCP on one
// loopback port, with its /vars endpoint on another.
type liveServer struct {
	cmd   *exec.Cmd
	addr  netip.AddrPort
	debug netip.AddrPort
	log   string
	done  chan struct{} // closed once the process has exited and been reaped
	http  *http.Client
}

// freePorts finds two distinct loopback ports, each free for both UDP
// and TCP. The probe sockets are closed before the server binds, so
// another process could take a port in between; the set-up then fails
// loudly rather than measuring the wrong thing.
func freePorts() (dns, debug netip.AddrPort, err error) {
	var found []netip.AddrPort
	var held []io.Closer
	defer func() {
		for _, c := range held {
			if cerr := c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	for attempt := 0; attempt < 20 && len(found) < 2; attempt++ {
		ln, addr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return dns, debug, err
		}
		held = append(held, ln)
		if pc, _, err := transport.ListenUDP(addr.String()); err == nil {
			held = append(held, pc)
			found = append(found, addr)
		}
	}
	if len(found) < 2 {
		return dns, debug, errors.New("no loopback ports free for both UDP and TCP")
	}
	return found[0], found[1], nil
}

// startServer spawns ldp-server on the zone files with GOMAXPROCS=procs
// and returns once it answers probe with want (compared without the
// message ID). The returned duration runs from spawning the process to
// that first correct answer: zone read, parse, validate and listen.
func startServer(ctx context.Context, bin string, zones []string, procs int, dir string, probe, want []byte) (*liveServer, time.Duration, error) {
	addr, debug, err := freePorts()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-udp", addr.String(), "-tcp", addr.String(), "-debug-addr", debug.String()}
	for _, z := range zones {
		args = append(args, "-zone", z)
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The server dies with this process even when it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	cmd.Stderr = logf
	s := &liveServer{
		cmd:   cmd,
		addr:  addr,
		debug: debug,
		log:   logPath,
		done:  make(chan struct{}),
		http:  &http.Client{Timeout: 5 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		cmd.Wait() //ldp:nolint errcheck — the exit status is irrelevant: stop interrupts the server on purpose
		close(s.done)
	}()
	if err := s.awaitAnswer(ctx, probe, want); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// awaitAnswer polls the server over UDP until it returns want for probe.
func (s *liveServer) awaitAnswer(ctx context.Context, probe, want []byte) error {
	ep, err := (&transport.NetDialer{}).Dial(ctx, transport.UDP, s.addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	buf := make([]byte, 65535)
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("ldp-server exited during set-up; log:\n%s", tail(s.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		// The deadline covers the send too, so set it first.
		if err := ep.SetDeadline(time.Now().Add(2 * time.Millisecond)); err != nil {
			return err
		}
		if err := ep.Send(probe); err == nil {
			// Before the server binds, the kernel refuses the datagram and
			// Recv fails at once; a wrong answer is an error, not a retry.
			if n, err := ep.Recv(buf); err == nil {
				if !sameAnswer(buf[:n], want) {
					return fmt.Errorf("probe answered wrongly: got %x want %x", buf[:n], want)
				}
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("ldp-server did not answer within 120s; log:\n%s", tail(s.log))
}

// sameAnswer compares two DNS messages ignoring the 2-byte ID.
func sameAnswer(a, b []byte) bool {
	return len(a) >= 2 && len(b) >= 2 && bytes.Equal(a[2:], b[2:])
}

func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop interrupts the server and waits until it has exited.
func (s *liveServer) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.cmd.Process.Kill() //ldp:nolint errcheck — the interrupt failed because the process is exiting; done closes either way
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //ldp:nolint errcheck — forcing a server that ignored the interrupt; done reports the exit
		<-s.done
	}
}

// vars fetches the server's live obs snapshot.
func (s *liveServer) vars() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := s.http.Get("http://" + s.debug.String() + "/vars")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/vars: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// cpu returns the server's user+system CPU time so far. /proc reports
// it in clock ticks (USER_HZ, 100 per second on Linux), so one reading
// is exact to 10 ms.
func (s *liveServer) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS returns the server's VmHWM in bytes.
func (s *liveServer) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Command nocd serves NoC latency estimates as a service: the nocsvc
// newline-delimited JSON protocol (open_session / estimate /
// batch_estimate / checkpoint_session / clone_session / stats /
// close_session) answered from live, warmed
// flatnet simulations. An execution-driven host simulator opens a
// session describing topology, routing and background load, then asks
// for congestion-aware transfer latencies the way uPIMulator consults
// BookSim2.
//
// Usage:
//
//	nocd [-stdio] [-listen addr] [-max-sessions 64] [-max-inflight 64] \
//	     [-idle-timeout 5m] [-open-wait 0] [-budget 65536] \
//	     [-max-nodes 4096] [-telemetry addr]
//
// With -listen, nocd is a shared daemon: any number of TCP clients
// multiplex sessions over it. With -stdio (the default when -listen is
// absent), nocd is a child process speaking the protocol over
// stdin/stdout, one host simulator per daemon. Both modes may run at
// once. -telemetry serves /debug/vars and /debug/pprof with live
// service counters (sessions, queue depths, service-latency quantiles).
//
// SIGINT or SIGTERM shuts down gracefully — listeners stop, sessions
// drain and close; a second signal forces immediate exit with status
// 130.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flatnet/internal/nocsvc"
	"flatnet/internal/telemetry"
)

func main() {
	var (
		stdio       = flag.Bool("stdio", false, "serve the protocol over stdin/stdout (default when -listen is absent)")
		listen      = flag.String("listen", "", "serve the protocol on this TCP address (e.g. 127.0.0.1:9920, or :0 for an OS-assigned port)")
		maxSessions = flag.Int("max-sessions", 64, "session cap; opens past it are rejected (or queued, see -open-wait)")
		maxInflight = flag.Int("max-inflight", 64, "per-session inflight request queue bound")
		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "evict sessions idle this long (<0 disables)")
		openWait    = flag.Duration("open-wait", 0, "how long an open may wait for a session slot at the cap before rejecting")
		budget      = flag.Int("budget", 1<<16, "per-estimate cycle budget before reporting saturation")
		maxNodes    = flag.Int("max-nodes", 4096, "reject session topologies with more terminals than this (<0 disables)")
		maxCkpts    = flag.Int("max-checkpoints", 16, "server-side session checkpoint store cap (oldest evicted first)")
		telemAddr   = flag.String("telemetry", "", "serve live metrics (/debug/vars, /debug/pprof) on this address")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nocd: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *listen == "" {
		*stdio = true
	}

	srv := nocsvc.NewServer(nocsvc.ServerConfig{
		MaxSessions:    *maxSessions,
		MaxInflight:    *maxInflight,
		IdleTimeout:    *idleTimeout,
		OpenWait:       *openWait,
		EstimateBudget: *budget,
		MaxNodes:       *maxNodes,
		MaxCheckpoints: *maxCkpts,
	})

	if *telemAddr != "" {
		reg := telemetry.NewRegistry()
		srv.Register(reg)
		if err := reg.Publish("nocd"); err != nil {
			fmt.Fprintln(os.Stderr, "nocd:", err)
			os.Exit(1)
		}
		ts, err := telemetry.Serve(*telemAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocd:", err)
			os.Exit(1)
		}
		defer ts.Close()
		fmt.Fprintf(os.Stderr, "nocd: serving metrics on http://%s/debug/vars\n", ts.Addr())
	}

	// done carries each serving mode's exit; the process ends when every
	// active mode has.
	modes := 0
	done := make(chan error)

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocd:", err)
			os.Exit(1)
		}
		// The bound address line is machine-readable on purpose: harness
		// scripts pass -listen 127.0.0.1:0 and scrape the port.
		fmt.Fprintf(os.Stderr, "nocd: listening on %s\n", ln.Addr())
		modes++
		go func() { done <- srv.Serve(ln) }()
	}
	if *stdio {
		modes++
		go func() {
			err := srv.ServeConn(stdioConn{})
			done <- err
		}()
	}

	// First SIGINT/SIGTERM: graceful shutdown. Second: forced exit 130.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "nocd: shutting down (signal again to force)")
		go func() {
			<-sigs
			fmt.Fprintln(os.Stderr, "nocd: forced exit")
			os.Exit(130)
		}()
		srv.Close()
	}()

	code := 0
	for i := 0; i < modes; i++ {
		if err := <-done; err != nil && !isClosedErr(err) {
			fmt.Fprintln(os.Stderr, "nocd:", err)
			code = 1
		}
	}
	srv.Close()
	os.Exit(code)
}

// stdioConn adapts the process's stdin/stdout into the single
// io.ReadWriter ServeConn wants.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

// isClosedErr reports errors that just mean "shutdown won the race":
// reads off a stdin or socket that Close tore down.
func isClosedErr(err error) bool {
	if err == nil || errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed) {
		return true
	}
	return strings.Contains(err.Error(), "use of closed network connection") ||
		strings.Contains(err.Error(), "file already closed")
}

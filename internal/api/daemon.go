package api

// The daemon scaffold collectord and queryrouterd share: the telemetry
// mounts next to the v1 surface, and the serve → signal → drain →
// shutdown sequence.

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// MountTelemetry mounts /metrics and the flight-recorder endpoints
// /debug/traces and /debug/events behind the shared middleware, plus,
// when pprofOn, the runtime profiles under /debug/pprof — opt-in: they
// reveal internals and cost CPU, so a production daemon keeps them off
// unless a human is debugging. All of it shares the API's listener: bind
// that to loopback or an internal interface, never publicly.
func (s *Server) MountTelemetry(metrics, traces, events http.Handler, pprofOn bool) {
	s.Handle("/metrics", metrics)
	s.Handle("/debug/traces", traces)
	s.Handle("/debug/events", events)
	if pprofOn {
		s.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
		s.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		s.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		s.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		s.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
}

// shutdownGrace is how long in-flight responses get to finish once the
// daemon's own drain is done.
const shutdownGrace = 5 * time.Second

// readHeaderTimeout is how long a peer has, from the first byte of a
// request, to finish its request line and headers before it is hung up
// on. Without it a connection that stops mid-line holds a goroutine and
// a descriptor until the process exits: Config.Timeout only starts once
// the headers are in. A connection idle between requests is not timed.
const readHeaderTimeout = 5 * time.Second

// ServeUntilSignal serves on ln until SIGINT or SIGTERM. Then health
// flips to 503 draining, so load balancers stop routing while the daemon
// works its way down; drain runs (the daemon's own work: stop the
// sockets, checkpoint — the listener still answers meanwhile); and the
// listener shuts down gracefully: no new connections, responses in
// flight run to completion (one that outlasts the grace period is cut
// off and logged). The only error returned is the listener failing
// before any signal.
func (s *Server) ServeUntilSignal(ln net.Listener, drain func()) error {
	// Notify before the first request can be accepted: once a request is
	// being served, a SIGTERM is already ours.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	hs := &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout}
	failed := make(chan error, 1)
	go func() { failed <- hs.Serve(ln) }()
	select {
	case err := <-failed:
		return err
	case <-sig:
	}
	s.SetDraining(true)
	drain()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		s.errorf("http shutdown: %v", err)
	}
	return nil
}

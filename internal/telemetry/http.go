// Introspection HTTP plumbing shared by scanshare-bench -realtime -http and
// scanshare-serve -http: a duplicate-safe expvar registry and a standard
// debug mux behind a gracefully restartable server.
//
// The trap this file exists for: expvar.Publish panics on a duplicate name
// and http.ServeMux panics on a duplicate pattern, but a process can start,
// shut down, and start an introspection endpoint more than once (tests do,
// and a served engine can be cycled). Names are therefore published to
// expvar exactly once per process, as thin Funcs that forward through a
// mutable provider registry; restarting swaps providers and never
// re-publishes. Muxes are built fresh per server instance, so patterns are
// never re-registered on a shared mux.
package telemetry

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// expvarReg is the process-wide provider registry behind every name this
// package publishes. The expvar.Func closures read it under RLock, so a
// swapped provider takes effect on the next scrape with no republish.
var expvarReg = struct {
	sync.RWMutex
	providers map[string]func() any
	published map[string]bool
}{providers: map[string]func() any{}, published: map[string]bool{}}

// PublishExpvar registers fn as the provider for the expvar name. The first
// call for a name performs the real expvar.Publish; every later call — a
// second server start after Shutdown, a second engine in the same process —
// only swaps the provider, so the duplicate-name panic cannot happen. A nil
// fn unhooks the name (the published Func then renders null) without
// unpublishing it, which expvar does not support.
func PublishExpvar(name string, fn func() any) {
	expvarReg.Lock()
	defer expvarReg.Unlock()
	expvarReg.providers[name] = fn
	if expvarReg.published[name] {
		return
	}
	expvarReg.published[name] = true
	expvar.Publish(name, expvar.Func(func() any {
		expvarReg.RLock()
		f := expvarReg.providers[name]
		expvarReg.RUnlock()
		if f == nil {
			return nil
		}
		return f()
	}))
}

// NewDebugMux builds the standard introspection handler set on a fresh mux:
// /debug/vars (expvar), /debug/pprof/*, and — when src is non-nil —
// /metrics in Prometheus text format. A fresh mux per server start is the
// other half of the restart story: patterns are never added to a mux that
// already has them.
func NewDebugMux(src *Sources) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if src != nil {
		mux.Handle("/metrics", Handler(*src))
	}
	return mux
}

// IntrospectionServer is one started instance of the debug endpoint. It owns
// its listener and http.Server; Shutdown is graceful and the instance is
// then dead — start a new one (with a new mux) to come back up.
type IntrospectionServer struct {
	ln  net.Listener
	srv *http.Server
	// errCh reports the Serve loop's exit; Shutdown drains it so the
	// goroutine never leaks past the instance.
	errCh chan error
}

// StartIntrospection listens on addr and serves handler until Shutdown.
// addr follows net.Listen("tcp", ...) conventions; ":0" picks a free port
// (see Addr). The serve loop runs in its own goroutine; its terminal error,
// if any, is returned by Shutdown.
func StartIntrospection(addr string, handler http.Handler) (*IntrospectionServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &IntrospectionServer{
		ln:    ln,
		srv:   &http.Server{Handler: handler},
		errCh: make(chan error, 1),
	}
	go func() {
		err := s.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.errCh <- err
	}()
	return s, nil
}

// Addr returns the bound listen address (resolving a ":0" request).
func (s *IntrospectionServer) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain within ctx's deadline. It returns the serve loop's error
// if it died before shutdown was requested.
func (s *IntrospectionServer) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.errCh; serveErr != nil && err == nil {
		err = serveErr
	}
	return err
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scanshare"
	"scanshare/internal/metrics"
	"scanshare/internal/trace"
)

// Config configures a Server.
type Config struct {
	// Engine executes admitted requests; its tables are the catalog
	// clients query. Required.
	Engine *scanshare.Engine
	// Tenants declares the admission limits; requests naming any other
	// tenant are rejected (not shed — rejection is permanent). Required.
	Tenants []TenantConfig
	// MaxConcurrent caps requests executing across all tenants; tenants
	// compete for these global slots under weighted round robin. <= 0
	// means the sum of the tenant caps.
	MaxConcurrent int
	// PageDelay models per-page processing cost for every executed scan,
	// as in RealtimeScan.PageDelay.
	PageDelay time.Duration
	// Realtime is the execution option template for every request. The
	// server forces Tracer to nil (concurrent RunRealtime calls must not
	// share a tracer attachment) and installs its own Collector when none
	// is set, so TelemetrySources observers see the aggregate load.
	Realtime scanshare.RealtimeOptions
	// Tracer, when non-nil, gives every request a span tree: a request
	// root spanning decode-to-response, with compile, admission-queue, and
	// scan children (the scan subtree comes from the runner). New attaches
	// it to the Engine once, before any request runs, so concurrent
	// RunRealtime calls share the attachment instead of racing on it —
	// which is why Realtime.Tracer stays forcibly nil.
	Tracer *trace.Tracer
}

// Server is the multi-tenant scan service: an accept loop feeding
// per-connection handlers that push every request through admission and the
// engine's realtime scan path. Start it with Serve, stop it with Shutdown.
type Server struct {
	cfg Config
	adm *admission
	all *metrics.TenantCollector

	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New validates cfg and builds the server. It does not listen yet.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	all := new(metrics.TenantCollector)
	adm, err := newAdmission(cfg.Tenants, cfg.MaxConcurrent, all)
	if err != nil {
		return nil, err
	}
	cfg.Realtime.Tracer = nil
	if cfg.Realtime.Collector == nil {
		cfg.Realtime.Collector = new(metrics.Collector)
	}
	if cfg.Tracer != nil {
		cfg.Engine.AttachTracer(cfg.Tracer)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		adm:     adm,
		all:     all,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

// Serve starts listening on addr ("host:port"; ":0" picks a free port) and
// accepts connections until Shutdown. It returns once the listener is live —
// the accept loop runs in the background.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ln)
}

// serve accepts connections from ln until Shutdown.
func (s *Server) serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// TenantStats snapshots per-tenant admission counters sorted by tenant name.
// Its method value plugs straight into telemetry.Sources.Tenants.
func (s *Server) TenantStats() []metrics.TenantStats { return s.adm.TenantStats() }

// AllStats aggregates admission counters across every tenant under the name
// "all" — the serve-mode benchmark's headline numbers.
func (s *Server) AllStats() metrics.TenantStats { return s.all.Snapshot("all") }

// Collector returns the metrics collector every request's execution feeds.
func (s *Server) Collector() *metrics.Collector { return s.cfg.Realtime.Collector }

// Shutdown stops accepting, cancels in-flight request execution, and waits
// for connection handlers to drain. When ctx expires first the remaining
// connections are closed forcibly and Shutdown still waits for the handlers
// (which then exit promptly on the dead sockets).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Accept backoff after a failed Accept, as net/http's: 5 ms, doubling to 1 s.
const (
	minAcceptBackoff = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			// Shutdown closes the listener. Any other failure — a full
			// file table, a connection reset before it was accepted —
			// passes: back off and accept again.
			if errors.Is(err, net.ErrClosed) || s.baseCtx.Err() != nil {
				return
			}
			if backoff *= 2; backoff == 0 {
				backoff = minAcceptBackoff
			} else if backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-s.baseCtx.Done():
			}
			t.Stop()
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		var req Request
		if err := ReadFrame(c, &req); err != nil {
			return // clean close, broken frame, or forced shutdown
		}
		resp := s.handle(s.baseCtx, &req)
		if err := WriteFrame(c, &resp); err != nil {
			return
		}
	}
}

// handle runs one request end to end: compile, admit, execute. Compilation
// precedes admission so malformed statements never consume a slot or skew
// the shed counters. With a tracer configured, the whole request runs under
// a root span whose children — compile, queue, and the runner's scan
// subtree — tile its critical path; every response carries the trace ID so
// clients can find their tree in the journal.
func (s *Server) handle(ctx context.Context, req *Request) Response {
	tr := s.cfg.Tracer
	root := tr.Root()
	reqSpan := tr.OpenSpan(root, trace.SpanRequest, trace.NoID, trace.NoID)
	defer reqSpan.Close()

	compileStart := time.Now()
	sc, err := s.cfg.Engine.CompileRealtimeScan(req.Query)
	compileWait := time.Since(compileStart)
	tr.EmitSpan(root, trace.SpanCompile, trace.NoID, trace.NoID, compileWait)
	if err != nil {
		return Response{Error: err.Error(), TraceID: root.Trace}
	}
	sc.PageDelay = s.cfg.PageDelay
	sc.Span = tr.Child(root)

	release, wait, err := s.adm.Acquire(ctx, req.Tenant)
	if err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			return Response{
				Shed:         true,
				Error:        err.Error(),
				RetryAfterMs: max(1, shed.RetryAfter.Milliseconds()),
				TraceID:      root.Trace,
			}
		}
		return Response{Error: err.Error(), TraceID: root.Trace}
	}
	defer release()
	tr.EmitSpan(root, trace.SpanQueue, trace.NoID, trace.NoID, wait)

	rep, err := s.cfg.Engine.RunRealtime(ctx, s.cfg.Realtime, []scanshare.RealtimeScan{sc})
	if err != nil {
		return Response{Error: err.Error(), TraceID: root.Trace}
	}
	res := rep.Results[0]
	if res.Err != nil {
		return Response{Error: fmt.Sprintf("server: scan failed: %v", res.Err), TraceID: root.Trace}
	}
	s.adm.recordBreakdown(req.Tenant, compileWait,
		res.ThrottleWait, res.PoolWait, res.ReadWait, res.DeliveryWait)
	return Response{
		OK:                 true,
		PagesRead:          res.PagesRead,
		WallMicros:         rep.Wall.Microseconds(),
		QueueWaitMicros:    wait.Microseconds(),
		TraceID:            root.Trace,
		CompileMicros:      compileWait.Microseconds(),
		ThrottleWaitMicros: res.ThrottleWait.Microseconds(),
		PoolWaitMicros:     res.PoolWait.Microseconds(),
		ReadWaitMicros:     res.ReadWait.Microseconds(),
		DeliveryWaitMicros: res.DeliveryWait.Microseconds(),
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scanshare"
	"scanshare/internal/server"
)

const (
	serveScale    = 20
	serveRequests = 1000
)

// serveStatements is the traffic mix: 60% hot-year lineitem (the last 1/7 of
// the table, where overlapping requests can share), 20% full lineitem, 20%
// full orders. The server folds nothing today, so each is a raw scan.
var serveStatements = []struct {
	share float64
	sql   string
}{
	{0.6, "SELECT count(*) FROM lineitem WHERE l_shipdate >= DATE '1998-01-01'"},
	{0.2, "SELECT count(*) FROM lineitem"},
	{0.2, "SELECT count(*) FROM orders"},
}

// serveMix generates the request sequence from the seed alone: the same seed
// gives the same sequence, byte for byte. Each entry indexes serveStatements.
func serveMix(seed int64, n int) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint8, n)
	for i := range out {
		x, acc := rng.Float64(), 0.0
		for k, st := range serveStatements {
			acc += st.share
			if x < acc || k == len(serveStatements)-1 {
				out[i] = uint8(k)
				break
			}
		}
	}
	return out
}

// serveClients is C: closed-loop connections, each sending its next request
// only after the previous reply.
func serveClients() int { return min(4, runtime.NumCPU()) }

// exchange is what the client saw of one request.
type exchange struct {
	rtt    time.Duration
	resp   server.Response
	err    error
	caller int64 // harness span of the request, when tracing
}

// runServe is serve_closed: the TCP service driven by C closed-loop
// connections the harness owns.
func runServe(r *rep) error {
	scale, requests := float64(serveScale), serveRequests
	if r.opt.quick {
		scale, requests = 1, 60
	}
	eng, db, err := paperEngine(r, scale)
	if err != nil {
		return err
	}
	clients := serveClients()
	mix := serveMix(r.opt.seed, requests)

	// Two tenants whose caps can never shed: a closed loop of C connections
	// has at most C requests in flight.
	tenants := []server.TenantConfig{
		{Name: "analytics", MaxConcurrent: clients, MaxQueueDepth: clients},
		{Name: "reporting", MaxConcurrent: clients, MaxQueueDepth: clients},
	}
	if r.opt.traced {
		r.startTracing()
	}
	var srv *server.Server
	conns := make([]net.Conn, clients)
	err = r.timeSetup("server.start", func() (err error) {
		srv, err = server.New(server.Config{Engine: eng, Tenants: tenants, Tracer: r.tracer})
		if err != nil {
			return err
		}
		if err = srv.Serve("127.0.0.1:0"); err != nil {
			return err
		}
		for i := range conns {
			if conns[i], err = net.Dial("tcp", srv.Addr()); err != nil {
				return err
			}
		}
		return nil
	})
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	if err != nil {
		if srv != nil {
			_ = srv.Shutdown(context.Background())
		}
		return err
	}

	// Pre-build every frame's request so the loop below only sends.
	reqs := make([]server.Request, requests)
	for i, k := range mix {
		reqs[i].Query = serveStatements[k].sql
	}
	got := make([]exchange, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	r.beginMeasure()
	for c, conn := range conns {
		wg.Add(1)
		go func(conn net.Conn, tenant string) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				req := reqs[i]
				req.Tenant = tenant
				op := "request-" + strconv.Itoa(i)
				whole := r.spans.start(r.root, op, "harness.request")
				t0 := time.Now()
				sp := r.spans.start(whole.id(), op, "server.write_frame")
				err := server.WriteFrame(conn, &req)
				sp.end()
				if err == nil {
					sp = r.spans.start(whole.id(), op, "server.read_frame")
					err = server.ReadFrame(conn, &got[i].resp)
					sp.end()
				}
				got[i].rtt, got[i].err, got[i].caller = time.Since(t0), err, whole.id()
				whole.end()
				if err != nil {
					return // the connection is unusable; its remaining share fails below
				}
			}
		}(conn, tenants[c%len(tenants)].Name)
	}
	wg.Wait()
	r.endMeasure()

	pool := eng.PoolStats()[""]
	all := srv.AllStats()
	col := srv.Collector().Snapshot()
	for i, c := range conns {
		c.Close()
		conns[i] = nil
	}
	sd := r.spans.start(r.root, r.workload, "server.shutdown")
	err = srv.Shutdown(context.Background())
	sd.end()
	if err != nil {
		return err
	}
	asm := r.stopTracing()

	// Oracle: every response OK, and as many pages as the statement's page
	// range holds. Refused, failed and unanswered requests all count.
	wantPages := make([]int, len(serveStatements))
	for k, st := range serveStatements {
		sc, err := eng.CompileRealtimeScan(st.sql)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		end := sc.EndPage
		if end == 0 {
			end = sc.Table.NumPages()
		}
		wantPages[k] = end - sc.StartPage
	}
	r.attempted = requests
	rtts := make([]float64, 0, requests)
	wire := make([]float64, 0, requests)
	var compile, poolWait, readWait, deliveryWait time.Duration
	for i := range got {
		x := &got[i]
		switch {
		case x.err != nil:
			r.fail(1, "request %d: %v", i, x.err)
			continue
		case !x.resp.OK:
			r.fail(1, "request %d: shed=%v error=%q", i, x.resp.Shed, x.resp.Error)
			continue
		case x.resp.PagesRead != wantPages[mix[i]]:
			r.fail(1, "request %d: %d pages, want %d", i, x.resp.PagesRead, wantPages[mix[i]])
		}
		r.logical += int64(x.resp.PagesRead)
		rtts = append(rtts, float64(x.rtt)/1e6)
		inside := x.resp.WallMicros + x.resp.QueueWaitMicros + x.resp.CompileMicros
		wire = append(wire, float64(x.rtt.Microseconds()-inside))
		compile += time.Duration(x.resp.CompileMicros) * time.Microsecond
		poolWait += time.Duration(x.resp.PoolWaitMicros) * time.Microsecond
		readWait += time.Duration(x.resp.ReadWaitMicros) * time.Microsecond
		deliveryWait += time.Duration(x.resp.DeliveryWaitMicros) * time.Microsecond
		if r.opOf != nil {
			r.opOf[x.resp.TraceID] = issued{"request-" + strconv.Itoa(i), x.caller}
		}
	}

	tail := highestPercentile(len(rtts), 99)
	r.set("requests_per_s", float64(len(rtts))/r.wall().Seconds())
	r.set("latency_p50_ms", percentile(rtts, 50))
	r.set("latency_p99_ms", percentile(rtts, tail))
	r.note("latency.samples", float64(len(rtts)))
	r.note("latency.tail_percentile", tail)

	r.phys = r.poolMetrics(pool)
	r.realtimeMetrics(col, poolWait, readWait, deliveryWait)
	r.set("sql.compile_busy_s", compile.Seconds())
	r.set("server.queue_wait_p50_us", float64(all.QueueWait.P50)/1e3)
	r.set("server.queue_wait_p99_us", float64(all.QueueWait.P99)/1e3)
	r.set("server.admitted", float64(all.Admitted))
	r.set("server.shed", float64(all.Shed))
	r.set("server.wire_overhead_p50_us", percentile(wire, 50))

	// The server does not expose its sharing manager's counters; the report
	// of any realtime run carries them cumulatively, so a one-page scan after
	// shutdown reads them out (and is itself taken out of the scan count).
	probe, err := eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{},
		[]scanshare.RealtimeScan{{Table: db.Customer, EndPage: 1}})
	if err != nil {
		return fmt.Errorf("reading sharing counters: %w", err)
	}
	s := probe.Sharing
	s.ScansStarted--
	r.sharingMetrics(s)
	r.programSpans(asm)
	return nil
}

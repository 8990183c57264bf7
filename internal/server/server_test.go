package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"scanshare"
)

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{Tenant: "acme", Query: "SELECT count(*) FROM rt"}
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
	// Clean EOF at a frame boundary.
	if err := ReadFrame(&buf, &out); err != io.EOF {
		t.Errorf("empty read error = %v, want io.EOF", err)
	}
}

func TestWireRejectsBadFrames(t *testing.T) {
	// Oversized declared length dies before allocating the payload.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var v Request
	if err := ReadFrame(bytes.NewReader(hdr[:]), &v); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("oversized frame error = %v", err)
	}
	// Zero length is equally invalid.
	binary.BigEndian.PutUint32(hdr[:], 0)
	if err := ReadFrame(bytes.NewReader(hdr[:]), &v); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("zero frame error = %v", err)
	}
	// Truncated payload surfaces as unexpected EOF.
	binary.BigEndian.PutUint32(hdr[:], 100)
	if err := ReadFrame(bytes.NewReader(append(hdr[:], 'x')), &v); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame error = %v", err)
	}
	// Writer refuses payloads beyond the frame limit.
	big := Request{Query: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(io.Discard, &big); err == nil {
		t.Error("oversized write accepted")
	}
}

// testEngine builds a small engine with one synthetic table "rt", the shape
// the serve workload scans.
func testEngine(t testing.TB, poolPages, rows int) *scanshare.Engine {
	t.Helper()
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: poolPages,
		PoolShards:      4,
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: 4, MinSharePages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := scanshare.MustSchema(
		scanshare.Field{Name: "id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "v", Kind: scanshare.KindFloat64},
	)
	_, err = eng.LoadTable("rt", schema, func(add func(scanshare.Tuple) error) error {
		for i := 0; i < rows; i++ {
			if err := add(scanshare.Tuple{scanshare.Int64(int64(i)), scanshare.Float64(float64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// TestServeOverloadAndFairness is the acceptance run: 64 seeded clients
// across 4 tenants against deliberately tight admission limits. The burst
// must shed some load, retries must drain everything, and the completed work
// must stay balanced across tenants.
func TestServeOverloadAndFairness(t *testing.T) {
	eng := testEngine(t, 48, 4000)
	tenants := []TenantConfig{
		{Name: "t0", MaxConcurrent: 2, MaxQueueDepth: 2},
		{Name: "t1", MaxConcurrent: 2, MaxQueueDepth: 2},
		{Name: "t2", MaxConcurrent: 2, MaxQueueDepth: 2},
		{Name: "t3", MaxConcurrent: 2, MaxQueueDepth: 2},
	}
	srv := startServer(t, Config{
		Engine:    eng,
		Tenants:   tenants,
		PageDelay: 200 * time.Microsecond,
	})

	stats, err := RunDriver(context.Background(), DriverConfig{
		Addr:    srv.Addr(),
		Clients: 64,
		Tenants: []string{"t0", "t1", "t2", "t3"},
		Queries: []string{
			"SELECT count(*) FROM rt",
			"SELECT id FROM rt LIMIT 10",
			"SELECT count(*) FROM rt WHERE v > 100",
		},
		RequestsPerClient: 3,
		Seed:              42,
		RetryOnShed:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("driver: %s", stats)

	const want = 64 * 3
	if stats.Completed != want || stats.Errors != 0 {
		t.Fatalf("completed %d (want %d), errors %d: %s", stats.Completed, want, stats.Errors, stats)
	}
	if stats.PagesRead == 0 {
		t.Error("no pages read")
	}

	ts := srv.TenantStats()
	if len(ts) != 4 {
		t.Fatalf("tenant stats = %v", ts)
	}
	var shed, minAdm, maxAdm int64
	for _, st := range ts {
		t.Logf("%s", st)
		shed += st.Shed
		if st.Running != 0 {
			t.Errorf("tenant %s still has %d running after drain", st.Name, st.Running)
		}
		if st.QueueWait.Count != st.Admitted {
			t.Errorf("tenant %s observed %d waits for %d admissions", st.Name, st.QueueWait.Count, st.Admitted)
		}
		if minAdm == 0 || st.Admitted < minAdm {
			minAdm = st.Admitted
		}
		if st.Admitted > maxAdm {
			maxAdm = st.Admitted
		}
	}
	// The startup burst (16 clients per tenant vs cap 2 + depth 2) must
	// overflow the queues.
	if shed == 0 {
		t.Error("overload run shed nothing; admission limits not biting")
	}
	// Every client completes the same request count, so per-tenant
	// admissions must balance within the 10% acceptance bound.
	if minAdm <= 0 || float64(maxAdm) > 1.10*float64(minAdm) {
		t.Errorf("admitted spread %d..%d exceeds 10%%", minAdm, maxAdm)
	}
	if spread := stats.TenantSpread(); spread > 1.10 {
		t.Errorf("completed spread = %.3f, want <= 1.10", spread)
	}

	all := srv.AllStats()
	if all.Admitted != int64(want) || all.Shed != shed {
		t.Errorf("aggregate = %+v, want admitted %d, shed %d", all, want, shed)
	}
	if srv.Collector().Snapshot().PagesRead == 0 {
		t.Error("engine collector saw no reads")
	}
}

// TestServeRequestErrors exercises the permanent-failure answers: malformed
// SQL, unknown tables, joins, and unknown tenants all fail without shedding
// or leaking slots.
func TestServeRequestErrors(t *testing.T) {
	eng := testEngine(t, 32, 500)
	srv := startServer(t, Config{
		Engine:  eng,
		Tenants: []TenantConfig{{Name: "t0", MaxConcurrent: 1}},
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for _, tc := range []struct {
		req     Request
		wantSub string
	}{
		{Request{Tenant: "t0", Query: "SELECT FROM nothing"}, ""},
		{Request{Tenant: "t0", Query: "SELECT count(*) FROM ghosts"}, "ghosts"},
		{Request{Tenant: "nobody", Query: "SELECT count(*) FROM rt"}, "unknown tenant"},
	} {
		if err := WriteFrame(conn, &tc.req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Shed || !strings.Contains(resp.Error, tc.wantSub) {
			t.Errorf("%+v -> %+v, want error containing %q", tc.req, resp, tc.wantSub)
		}
	}
	// A good request on the same connection still works.
	if err := WriteFrame(conn, &Request{Tenant: "t0", Query: "SELECT count(*) FROM rt"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.PagesRead == 0 {
		t.Errorf("good request -> %+v", resp)
	}
	if st := srv.TenantStats()[0]; st.Running != 0 || st.Admitted != 1 || st.Shed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServeLifecycle(t *testing.T) {
	eng := testEngine(t, 32, 500)
	srv, err := New(Config{Engine: eng, Tenants: []TenantConfig{{Name: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() != "" {
		t.Errorf("Addr before Serve = %q", srv.Addr())
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err == nil {
		t.Error("double Serve accepted")
	}
	addr := srv.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if err := srv.Serve("127.0.0.1:0"); err == nil {
		t.Error("Serve after Shutdown accepted")
	}
}

// flakyListener fails its first Accept with a transient error (a full file
// table) and then accepts for real.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestServeSurvivesAcceptError: one failed Accept does not end the service;
// the loop backs off and serves the next connection.
func TestServeSurvivesAcceptError(t *testing.T) {
	eng := testEngine(t, 32, 500)
	srv, err := New(Config{Engine: eng, Tenants: []TenantConfig{{Name: "t0", MaxConcurrent: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	if err := srv.serve(fl); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(conn, &Request{Tenant: "t0", Query: "SELECT count(*) FROM rt"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatalf("no response after a failed Accept: %v", err)
	}
	if !resp.OK || resp.PagesRead == 0 {
		t.Errorf("request after a failed Accept -> %+v", resp)
	}
	if !fl.failed.Load() {
		t.Error("the listener never failed an Accept: the test exercised nothing")
	}
}

func TestDriverConfigErrors(t *testing.T) {
	for _, cfg := range []DriverConfig{
		{},
		{Clients: 1, RequestsPerClient: 1},
		{Clients: 1, RequestsPerClient: 1, Tenants: []string{"t"}},
	} {
		if _, err := RunDriver(context.Background(), cfg); err == nil {
			t.Errorf("RunDriver(%+v) accepted", cfg)
		}
	}
	// Unreachable address: the connection error must surface, tagged with
	// the client index.
	_, err := RunDriver(context.Background(), DriverConfig{
		Addr: "127.0.0.1:1", Clients: 1, RequestsPerClient: 1,
		Tenants: []string{"t"}, Queries: []string{"SELECT count(*) FROM rt"},
	})
	if err == nil || !strings.Contains(err.Error(), "client 0") {
		t.Errorf("unreachable driver error = %v", err)
	}
}

package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// TenantCollector aggregates one tenant's admission-control activity in the
// serve front end. Like Collector it is written from hot paths — every
// request the server accepts or sheds touches it — so it uses plain atomics
// and never blocks. The zero value is ready to use.
type TenantCollector struct {
	// counters holds one atomic per tenantCounter; TenantCounters says
	// which TenantStats field each one fills.
	counters [numTenantCounters]atomic.Int64
	// queueWait is the admission-queue latency distribution: time from a
	// request entering its tenant's FIFO to the dispatcher granting it a
	// slot. Requests admitted on a free slot observe ~0.
	queueWait Histogram
}

// tenantCounter names one of the TenantCollector's counters.
type tenantCounter int

const (
	tenantAdmitted tenantCounter = iota
	tenantQueued
	tenantShed
	tenantRunning
	// Latency-attribution sums over completed requests, synced from each
	// request's inline wait counters by the server — the always-on live
	// counterpart of the span assembler's per-query breakdown.
	tenantCompile
	tenantThrottle
	tenantPoolWait
	tenantRead
	tenantDelivery
	numTenantCounters
)

// TenantCounters declares every TenantCollector counter: its Prometheus
// family (one sample per tenant) and the TenantStats field it fills. The
// exporter writes the counters and the gauge, then the queue-wait summary,
// then the seconds. Read-only.
var TenantCounters = [numTenantCounters]Desc[TenantStats]{
	tenantAdmitted: {"scanshare_tenant_admitted_total", "Requests granted an execution slot.", KindCount, unsafe.Offsetof(TenantStats{}.Admitted)},
	tenantQueued:   {"scanshare_tenant_queued_total", "Requests that waited in the admission FIFO before a slot freed.", KindCount, unsafe.Offsetof(TenantStats{}.Queued)},
	tenantShed:     {"scanshare_tenant_shed_total", "Requests rejected because the admission queue was at its depth limit.", KindCount, unsafe.Offsetof(TenantStats{}.Shed)},
	tenantRunning:  {"scanshare_tenant_running", "Requests currently holding an execution slot.", KindGauge, unsafe.Offsetof(TenantStats{}.Running)},
	tenantCompile:  {"scanshare_tenant_compile_seconds_total", "SQL parse and plan time of the tenant's requests.", KindSeconds, unsafe.Offsetof(TenantStats{}.CompileWait)},
	tenantThrottle: {"scanshare_tenant_throttle_wait_seconds_total", "SSM-inserted sleeps inside the tenant's scans.", KindSeconds, unsafe.Offsetof(TenantStats{}.ThrottleWait)},
	tenantPoolWait: {"scanshare_tenant_pool_wait_seconds_total", "Buffer-pool contention waits inside the tenant's scans.", KindSeconds, unsafe.Offsetof(TenantStats{}.PoolWait)},
	tenantRead:     {"scanshare_tenant_read_wait_seconds_total", "Physical page-read time inside the tenant's scans.", KindSeconds, unsafe.Offsetof(TenantStats{}.ReadWait)},
	tenantDelivery: {"scanshare_tenant_delivery_wait_seconds_total", "Push-delivery batch-channel waits inside the tenant's scans.", KindSeconds, unsafe.Offsetof(TenantStats{}.DeliveryWait)},
}

// TenantStats is an atomically-read (field by field, not instantaneous)
// snapshot of one tenant's admission counters, tagged with the tenant name.
type TenantStats struct {
	Name     string
	Admitted int64 // requests granted an execution slot
	Queued   int64 // requests that waited in the FIFO before admission
	Shed     int64 // requests rejected because the queue was at depth limit
	Running  int64 // requests currently holding a slot (gauge)

	QueueWait HistogramStats // FIFO wait of admitted requests

	// Latency breakdown of completed requests: where the tenant's time
	// went once admitted. CompileWait is SQL parse+plan; the rest are the
	// scan-side wait components (throttle sleeps, buffer-pool contention,
	// physical reads, push-delivery stalls).
	CompileWait  time.Duration
	ThrottleWait time.Duration
	PoolWait     time.Duration
	ReadWait     time.Duration
	DeliveryWait time.Duration
}

// ShedRate returns Shed / (Admitted + Shed): the fraction of concluded
// admission decisions that turned the request away. Zero when nothing was
// decided yet.
func (s TenantStats) ShedRate() float64 {
	total := s.Admitted + s.Shed
	if total == 0 {
		return 0
	}
	return float64(s.Shed) / float64(total)
}

// String renders the snapshot as one compact log line.
func (s TenantStats) String() string {
	out := fmt.Sprintf("tenant %s: %d admitted (%d queued first), %d shed, %d running",
		s.Name, s.Admitted, s.Queued, s.Shed, s.Running)
	if s.QueueWait.Count > 0 {
		out += fmt.Sprintf(", queue wait %s", s.QueueWait)
	}
	if s.CompileWait+s.ThrottleWait+s.PoolWait+s.ReadWait+s.DeliveryWait > 0 {
		out += fmt.Sprintf(", waits compile=%v throttle=%v pool=%v read=%v delivery=%v",
			s.CompileWait, s.ThrottleWait, s.PoolWait, s.ReadWait, s.DeliveryWait)
	}
	return out
}

// Admitted records a request granted an execution slot after waiting wait in
// the admission queue (zero when a slot was free immediately), and moves the
// running gauge up; the caller must pair it with Released.
func (c *TenantCollector) Admitted(wait time.Duration) {
	c.counters[tenantAdmitted].Add(1)
	c.counters[tenantRunning].Add(1)
	c.queueWait.Observe(wait)
}

// Queued records a request that could not run immediately and entered the
// tenant's FIFO.
func (c *TenantCollector) Queued() { c.counters[tenantQueued].Add(1) }

// Shed records a request rejected because the tenant's queue was at its
// depth limit.
func (c *TenantCollector) Shed() { c.counters[tenantShed].Add(1) }

// Released moves the running gauge down when an admitted request's slot is
// returned.
func (c *TenantCollector) Released() { c.counters[tenantRunning].Add(-1) }

// RecordBreakdown adds one completed request's latency attribution: compile
// time plus the scan's inline wait counters.
func (c *TenantCollector) RecordBreakdown(compile, throttle, pool, read, delivery time.Duration) {
	c.counters[tenantCompile].Add(int64(compile))
	c.counters[tenantThrottle].Add(int64(throttle))
	c.counters[tenantPoolWait].Add(int64(pool))
	c.counters[tenantRead].Add(int64(read))
	c.counters[tenantDelivery].Add(int64(delivery))
}

// Snapshot returns the current counters under name.
func (c *TenantCollector) Snapshot(name string) TenantStats {
	s := TenantStats{Name: name}
	if c == nil {
		return s
	}
	for i := range TenantCounters {
		*TenantCounters[i].At(&s) = c.counters[i].Load()
	}
	s.QueueWait = c.queueWait.Snapshot()
	return s
}

// Reset zeroes the counters and the wait histogram. Like Collector.Reset it
// clears field by field: call it between runs, not mid-traffic.
func (c *TenantCollector) Reset() {
	if c == nil {
		return
	}
	for i := range c.counters {
		c.counters[i].Store(0)
	}
	c.queueWait.Reset()
}

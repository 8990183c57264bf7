// Package telemetry is the engine's continuous observability layer: a
// low-overhead periodic sampler over the live metric sources, a hand-rolled
// Prometheus text-format exporter, and a flight recorder that dumps the
// recent past on failure.
//
// The trace journal (internal/trace) records discrete *events*; the
// end-of-run reports aggregate *totals*. Neither can answer "was the
// throttle actually holding the groups together at t=40s?" — that needs the
// state, sampled on a clock: per-group leader–trailer distance, throttle
// duty cycle, pool hit rate, shard occupancy skew, coalesce rate, prefetch
// queue depth. The Sampler snapshots all of it at a configurable interval
// into a bounded in-memory ring, and delta-encoding between consecutive
// samples turns the monotonic counters into rates (hits/sec, pages/sec)
// for free.
//
// Everything the sampler reads is already lock-free or
// consistent-per-source: the metrics.Collector is atomics, the pool's
// per-shard stats are exact snapshots under each shard's own mutex, and the
// manager snapshot is one consistent view under its lock. A sample is
// therefore "consistent enough" in the same sense as CollectorStats — each
// source is internally coherent, the set is not taken at one instant — and
// sampling never blocks a scan worker.
package telemetry

import (
	"math"
	"sync"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/metrics"
	"scanshare/internal/vclock"
)

// PoolSource names one buffer pool and provides its live counters. Shards
// must return one exact snapshot per shard (buffer.Pool.ShardStats) and
// Occupancy the per-shard resident page counts (buffer.Pool.ShardOccupancy);
// either may be nil, which samples as empty.
type PoolSource struct {
	Name        string
	Capacity    int
	Policy      string // replacement policy name; "" means the default priority-LRU
	Translation string // page translation kind; "" means the default map
	Shards      func() []buffer.Stats
	Occupancy   func() []int
}

// Sources bundles the live inputs one Sampler (and the Prometheus exporter)
// reads. Any field may be nil/empty; the corresponding sample sections stay
// zero.
type Sources struct {
	// Collector is the realtime run's activity counter block.
	Collector *metrics.Collector
	// Pools lists every buffer pool to sample.
	Pools []PoolSource
	// Sharing returns a consistent scan/group snapshot (Engine.SharingSnapshot
	// or Manager.Snapshot).
	Sharing func() core.Snapshot
	// Tenants returns one admission snapshot per tenant, sorted by name
	// (server.Server.TenantStats). Nil outside serve mode, which keeps every
	// pre-serve sample, Prometheus exposition, and flight record shape
	// unchanged.
	Tenants func() []metrics.TenantStats
}

// PoolSample is one pool's state in one sample.
type PoolSample struct {
	Name        string       `json:"name"`
	Capacity    int          `json:"capacity"`
	Policy      string       `json:"policy,omitempty"`      // replacement policy name
	Translation string       `json:"translation,omitempty"` // page translation kind
	Stats       buffer.Stats `json:"stats"`                 // aggregate over shards
	Occupancy   []int        `json:"occupancy,omitempty"`   // resident pages per shard
}

// OccupancySkew measures how unevenly pages are spread over the shards:
// max/mean − 1, so 0 is perfectly balanced and 1 means the fullest shard
// holds twice the mean. Single-shard pools and empty pools report 0.
func (p PoolSample) OccupancySkew() float64 {
	if len(p.Occupancy) < 2 {
		return 0
	}
	sum, max := 0, 0
	for _, n := range p.Occupancy {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(p.Occupancy))
	return float64(max)/mean - 1
}

// GroupSample is one scan group's state in one sample.
type GroupSample struct {
	Table    int64 `json:"table"`
	Members  int   `json:"members"`
	GapPages int   `json:"gap_pages"` // leader–trailer distance
}

// Sample is one periodic snapshot of the engine's dynamic state.
type Sample struct {
	// At is the sample time on the sampler's clock (wall offset from the
	// sampler's creation by default).
	At time.Duration `json:"at"`
	// Seq numbers samples from 1; gaps never occur (the ring drops old
	// samples, not new ones).
	Seq uint64 `json:"seq"`

	Counters metrics.CollectorStats `json:"counters"`
	Pools    []PoolSample           `json:"pools,omitempty"`

	// ScansActive and ScansDetached count registered scans; Groups holds
	// one entry per scan group, trailer order.
	ScansActive   int           `json:"scans_active"`
	ScansDetached int           `json:"scans_detached"`
	Groups        []GroupSample `json:"groups,omitempty"`

	// PrefetchQueueDepth is the live extent backlog (enqueued − picked).
	PrefetchQueueDepth int64 `json:"prefetch_queue_depth"`

	// Tenants holds one admission snapshot per tenant in serve mode, sorted
	// by name; empty (and omitted) otherwise.
	Tenants []metrics.TenantStats `json:"tenants,omitempty"`
}

// MaxGroupGap returns the largest leader–trailer distance across the
// sample's groups, or 0 with none.
func (s Sample) MaxGroupGap() int {
	max := 0
	for _, g := range s.Groups {
		if g.GapPages > max {
			max = g.GapPages
		}
	}
	return max
}

// Rates is the delta-encoding of two consecutive samples: every monotonic
// counter becomes a rate over the elapsed interval, which is how drift
// (a hit rate sagging at t=40s, a coalesce rate collapsing after a split)
// becomes visible without any extra instrumentation on the hot paths.
type Rates struct {
	// Interval is the elapsed time between the two samples.
	Interval time.Duration `json:"interval"`

	PagesPerSec     float64 `json:"pages_per_sec"`
	HitsPerSec      float64 `json:"hits_per_sec"`
	MissesPerSec    float64 `json:"misses_per_sec"`
	EvictionsPerSec float64 `json:"evictions_per_sec"`
	CoalescedPerSec float64 `json:"coalesced_per_sec"`
	// BatchesPerSec is the push-delivery batch acceptance rate; zero (and
	// omitted) for pull-mode runs.
	BatchesPerSec float64 `json:"batches_per_sec,omitempty"`

	// HitRate is the interval's pool hit fraction (delta hits over delta
	// pages), NaN-free: 0 when no page was read in the interval.
	HitRate float64 `json:"hit_rate"`
	// ThrottleDuty is the fraction of the interval spent in SSM-inserted
	// waits, summed over all scans (so with 4 scans throttled the whole
	// interval it reads 4.0).
	ThrottleDuty float64 `json:"throttle_duty"`
}

// Delta computes the rates from prev to s. A non-positive elapsed interval
// (identical or reordered samples) returns zero Rates.
func (s Sample) Delta(prev Sample) Rates {
	dt := s.At - prev.At
	if dt <= 0 {
		return Rates{}
	}
	secs := dt.Seconds()
	per := func(now, then int64) float64 { return float64(now-then) / secs }

	var evNow, evThen int64
	for _, p := range s.Pools {
		evNow += p.Stats.Evictions
	}
	for _, p := range prev.Pools {
		evThen += p.Stats.Evictions
	}

	r := Rates{
		Interval:        dt,
		PagesPerSec:     per(s.Counters.PagesRead, prev.Counters.PagesRead),
		HitsPerSec:      per(s.Counters.Hits, prev.Counters.Hits),
		MissesPerSec:    per(s.Counters.Misses, prev.Counters.Misses),
		EvictionsPerSec: per(evNow, evThen),
		CoalescedPerSec: per(s.Counters.ReadsCoalesced, prev.Counters.ReadsCoalesced),
		BatchesPerSec:   per(s.Counters.BatchesPushed, prev.Counters.BatchesPushed),
		ThrottleDuty:    (s.Counters.ThrottleWait - prev.Counters.ThrottleWait).Seconds() / secs,
	}
	if dp := s.Counters.PagesRead - prev.Counters.PagesRead; dp > 0 {
		r.HitRate = float64(s.Counters.Hits-prev.Counters.Hits) / float64(dp)
	}
	if math.IsNaN(r.ThrottleDuty) || r.ThrottleDuty < 0 {
		r.ThrottleDuty = 0
	}
	return r
}

// DefaultInterval is the sampling cadence Start uses when none was
// configured: frequent enough to see drift, cheap enough to forget about
// (one sample costs a few microseconds; see BenchmarkSampleNow).
const DefaultInterval = 100 * time.Millisecond

// DefaultRingSamples bounds the in-memory sample ring: at the default
// interval it retains the last minute of history.
const DefaultRingSamples = 600

// Sampler periodically snapshots the sources into a bounded ring. Create
// one with NewSampler, Start it for ticker-driven sampling (or call
// SampleNow from your own cadence), and Stop it when the run ends; the ring
// stays readable after Stop.
type Sampler struct {
	src      Sources
	interval time.Duration
	clock    func() time.Duration

	mu   sync.Mutex
	ring []Sample // circular, ring[(seq-1)%cap] is sample seq
	seq  uint64   // samples taken so far
	stop chan struct{}
	done chan struct{}
}

// NewSampler returns a stopped sampler over src. interval <= 0 picks
// DefaultInterval; ringSamples <= 0 picks DefaultRingSamples. The sampler's
// clock starts at its creation.
func NewSampler(src Sources, interval time.Duration, ringSamples int) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if ringSamples <= 0 {
		ringSamples = DefaultRingSamples
	}
	w := new(vclock.Wall)
	w.Now() // pin the epoch to creation time
	return &Sampler{
		src:      src,
		interval: interval,
		clock:    w.Now,
		ring:     make([]Sample, 0, ringSamples),
	}
}

// SetClock substitutes the sample timestamp source; for deterministic
// tests. Call before Start.
func (s *Sampler) SetClock(fn func() time.Duration) { s.clock = fn }

// Interval returns the configured sampling interval.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start launches the ticker-driven sampling goroutine. It panics if called
// twice without a Stop, mirroring trace.Tracer.Start.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		panic("telemetry: Sampler.Start called twice")
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.SampleNow()
		case <-stop:
			return
		}
	}
}

// Stop halts the sampling goroutine and takes one final sample, so the ring
// always ends with the run's last state. Stopping a never-started or
// already-stopped sampler just takes the sample.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.SampleNow()
}

// SampleNow reads every source, appends the sample to the ring (evicting
// the oldest when full), and returns it.
func (s *Sampler) SampleNow() Sample {
	smp := s.read()

	s.mu.Lock()
	s.seq++
	smp.Seq = s.seq
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, smp)
	} else {
		s.ring[int((s.seq-1)%uint64(cap(s.ring)))] = smp
	}
	s.mu.Unlock()
	return smp
}

// read collects one sample from the sources without touching the ring.
func (s *Sampler) read() Sample {
	smp := Sample{At: s.clock()}
	if s.src.Collector != nil {
		smp.Counters = s.src.Collector.Snapshot()
		smp.PrefetchQueueDepth = smp.Counters.PrefetchQueueDepth()
	}
	for _, ps := range s.src.Pools {
		sample := PoolSample{Name: ps.Name, Capacity: ps.Capacity, Policy: ps.Policy, Translation: ps.Translation}
		if ps.Shards != nil {
			for _, st := range ps.Shards() {
				sample.Stats.Add(st)
			}
		}
		if ps.Occupancy != nil {
			sample.Occupancy = ps.Occupancy()
		}
		smp.Pools = append(smp.Pools, sample)
	}
	if s.src.Tenants != nil {
		smp.Tenants = s.src.Tenants()
	}
	if s.src.Sharing != nil {
		snap := s.src.Sharing()
		smp.ScansActive = len(snap.Scans)
		smp.ScansDetached = snap.DetachedScans()
		for _, g := range snap.Groups {
			smp.Groups = append(smp.Groups, GroupSample{
				Table:    int64(g.Table),
				Members:  len(g.Members),
				GapPages: g.GapPages(),
			})
		}
	}
	return smp
}

// Samples returns a copy of the retained samples, oldest first.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	if len(s.ring) < cap(s.ring) {
		return append(out, s.ring...)
	}
	head := int(s.seq % uint64(cap(s.ring))) // oldest sample's slot
	out = append(out, s.ring[head:]...)
	return append(out, s.ring[:head]...)
}

// Last returns the most recent sample, if any was taken.
func (s *Sampler) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq == 0 {
		return Sample{}, false
	}
	return s.ring[int((s.seq-1)%uint64(cap(s.ring)))], true
}

// Taken returns how many samples were taken over the sampler's lifetime
// (>= len(Samples()); the ring only retains the most recent ones).
func (s *Sampler) Taken() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

package scanshare

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/catalog"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/exec"
	"scanshare/internal/heap"
	"scanshare/internal/metrics"
	"scanshare/internal/sim"
	"scanshare/internal/telemetry"
	"scanshare/internal/trace"
)

// Engine owns one storage stack — simulated disk, buffer pool, catalog,
// scan sharing manager — and a virtual timeline. Tables are loaded once and
// queried through Run, which executes a batch of concurrent jobs to
// completion in virtual time.
//
// An Engine's virtual clock only moves during Run; successive Run calls
// continue on the same timeline with the same buffer pool contents, which
// mirrors how successive workloads hit a warm database. Use separate engines
// for independent comparisons (e.g. Baseline vs Shared runs of the same
// workload).
//
// Engines are not safe for concurrent use; all concurrency lives inside Run.
type Engine struct {
	cfg       Config
	kernel    *sim.Kernel
	dev       *disk.Device
	cat       *catalog.Catalog
	cost      exec.CostModel
	cpu       *sim.Resource // nil = unlimited cores
	jobSeq    int
	observers []observer

	// tracer and sharingFn are the two consumers of manager events; a
	// single dispatch closure installed by rewireEvents feeds both.
	tracer    *trace.Tracer
	sharingFn func(pool string, ev SharingEvent)

	// tableRT remembers each table's pool for Lookup; tableStats holds
	// the per-column statistics collected while each table loaded.
	tableRT    map[catalog.TableID]*poolRT
	tableStats map[catalog.TableID][]colStats
	// pools maps pool names to their runtime; defPool is pools[""], the
	// default pool every table lands in unless placed elsewhere with
	// LoadTableInPool. Each pool has its own scan sharing manager, as in
	// the paper ("there is one ISM per bufferpool").
	pools   map[string]*poolRT
	defPool *poolRT
}

// poolRT bundles one buffer pool with its scan sharing manager.
type poolRT struct {
	name  string
	pool  *buffer.Pool
	ssm   *core.Manager
	scans *managerScans // the pool's scan source, reading ssm
}

// managerScans is a pool's scan source, which only a predictive pool reads:
// the scans its sharing manager tracks to place, group and throttle them,
// anchored in device page space at each table's first page (every table's
// pages are contiguous on the device). It is the pool's only scan registry.
type managerScans struct {
	ssm *core.Manager
	mu  sync.Mutex
	// first maps each table of the pool to its first device page; buf
	// holds the positions last read from the manager, reused across
	// victims and kept while the manager is busy.
	first map[core.TableID]disk.PageID
	buf   []core.ScanPosition
}

func (s *managerScans) addTable(id core.TableID, first disk.PageID) {
	s.mu.Lock()
	s.first[id] = first
	s.mu.Unlock()
}

// AppendScans implements buffer.ScanSource.
func (s *managerScans) AppendScans(dst []buffer.ScanState) []buffer.ScanState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf, ok := s.ssm.AppendScans(s.buf[:0]); ok {
		s.buf = buf
	}
	for _, sp := range s.buf {
		base, ok := s.first[sp.Table]
		if !ok {
			continue
		}
		dst = append(dst, buffer.ScanState{
			Footprint: buffer.ScanFootprint{Base: base, Start: sp.Start, End: sp.End, Origin: sp.Origin},
			Processed: sp.Processed,
			Speed:     sp.Speed,
		})
	}
	return dst
}

// New creates an engine. Zero-valued config fields take defaults; see the
// Config field docs.
func New(cfg Config) (*Engine, error) {
	if cfg.BufferPoolPages <= 0 {
		return nil, fmt.Errorf("scanshare: BufferPoolPages must be positive, got %d", cfg.BufferPoolPages)
	}

	dm := disk.DefaultModel()
	if cfg.Disk.SeekTime != 0 {
		dm.SeekTime = cfg.Disk.SeekTime
	}
	if cfg.Disk.TransferPerPage != 0 {
		dm.TransferPerPage = cfg.Disk.TransferPerPage
	}
	if cfg.Disk.PageSize != 0 {
		dm.PageSize = cfg.Disk.PageSize
	}
	dev, err := disk.New(dm, cfg.Disk.SeriesBucket)
	if err != nil {
		return nil, err
	}

	cost := exec.DefaultCostModel()
	if cfg.CPU.PerPageCPU != 0 {
		cost.PerPageCPU = cfg.CPU.PerPageCPU
	}
	if cfg.CPU.PerTupleCPU != 0 {
		cost.PerTupleCPU = cfg.CPU.PerTupleCPU
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	if cfg.CPU.Cores < 0 {
		return nil, fmt.Errorf("scanshare: negative core count %d", cfg.CPU.Cores)
	}
	var cpu *sim.Resource
	if cfg.CPU.Cores > 0 {
		cpu = sim.MustNewResource(cfg.CPU.Cores)
	}

	if cfg.BusyRetryDelay == 0 {
		cfg.BusyRetryDelay = 100 * time.Microsecond
	}
	if cfg.BusyRetryDelay < 0 {
		return nil, fmt.Errorf("scanshare: negative BusyRetryDelay")
	}

	e := &Engine{
		cfg:        cfg,
		kernel:     sim.New(),
		dev:        dev,
		cat:        catalog.New(),
		cost:       cost,
		cpu:        cpu,
		pools:      make(map[string]*poolRT, 1+len(cfg.Pools)),
		tableRT:    make(map[catalog.TableID]*poolRT),
		tableStats: make(map[catalog.TableID][]colStats),
	}
	if cfg.PoolShards < 0 {
		return nil, fmt.Errorf("scanshare: negative PoolShards %d", cfg.PoolShards)
	}
	def, err := newPoolRT("", cfg.BufferPoolPages, cfg.PoolShards, cfg.PoolPolicy, cfg.PoolTranslation, cfg.Sharing)
	if err != nil {
		return nil, err
	}
	e.defPool = def
	e.pools[""] = def
	for _, pc := range cfg.Pools {
		if pc.Name == "" {
			return nil, fmt.Errorf("scanshare: extra pool with empty name")
		}
		if _, dup := e.pools[pc.Name]; dup {
			return nil, fmt.Errorf("scanshare: duplicate pool %q", pc.Name)
		}
		shards := pc.Shards
		if shards == 0 {
			shards = cfg.PoolShards
		}
		policy := pc.Policy
		if policy == "" {
			policy = cfg.PoolPolicy
		}
		translation := pc.Translation
		if translation == "" {
			translation = cfg.PoolTranslation
		}
		rt, err := newPoolRT(pc.Name, pc.Pages, shards, policy, translation, cfg.Sharing)
		if err != nil {
			return nil, fmt.Errorf("scanshare: pool %q: %w", pc.Name, err)
		}
		e.pools[pc.Name] = rt
	}
	return e, nil
}

// newPoolRT creates one buffer pool and its scan sharing manager, which is
// also the pool's scan source. The SSM's grouping budget is the pool's own
// size. shards <= 1 builds the classic
// single-shard pool; policy "" selects the default priority-LRU replacement;
// translation "" selects the classic map page table. Array translation
// coverage grows on demand as tables load, since pools are created before
// the catalog is populated.
func newPoolRT(name string, pages, shards int, policy, translation string, s SharingConfig) (*poolRT, error) {
	if shards <= 0 {
		shards = 1
	}
	pool, err := buffer.NewPoolOpts(buffer.PoolOptions{
		Capacity:    pages,
		Shards:      shards,
		Policy:      policy,
		Translation: translation,
	})
	if err != nil {
		return nil, err
	}
	ssmCfg := core.DefaultConfig(pages)
	if s.PrefetchExtentPages != 0 {
		ssmCfg.PrefetchExtentPages = s.PrefetchExtentPages
	}
	if s.ThrottleThresholdExtents != 0 {
		ssmCfg.ThrottleThresholdExtents = s.ThrottleThresholdExtents
	}
	if s.MaxThrottleFraction != 0 {
		ssmCfg.MaxThrottleFraction = s.MaxThrottleFraction
	}
	if s.MaxWaitPerUpdate != 0 {
		ssmCfg.MaxWaitPerUpdate = s.MaxWaitPerUpdate
	}
	if s.MinSharePages != 0 {
		ssmCfg.MinSharePages = s.MinSharePages
	}
	if s.ResidualBackoffPages != 0 {
		ssmCfg.ResidualBackoffPages = s.ResidualBackoffPages
	}
	ssmCfg.Throttling = !s.DisableThrottling
	ssmCfg.PriorityHints = !s.DisablePriorityHints
	ssmCfg.Placement = !s.DisablePlacement
	ssmCfg.EstimatePlacement = s.EstimatePlacement
	ssmCfg.AdaptiveReporting = s.AdaptiveReporting
	ssm, err := core.NewManager(ssmCfg)
	if err != nil {
		return nil, err
	}
	scans := &managerScans{ssm: ssm, first: make(map[core.TableID]disk.PageID)}
	pool.SetScanSource(scans)
	return &poolRT{name: name, pool: pool, ssm: ssm, scans: scans}, nil
}

// MustNew is New panicking on error, for tests and examples with known-good
// configurations.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Table is a loaded, immutable table.
type Table struct {
	eng *Engine
	id  catalog.TableID
	tbl *heap.Table
	rt  *poolRT
}

// Pool returns the name of the buffer pool the table is served from; the
// default pool is named "".
func (t *Table) Pool() string { return t.rt.name }

// Name returns the table name.
func (t *Table) Name() string { return t.tbl.Name() }

// coreTableID maps the catalog ID onto the SSM's table identifier space.
func (t *Table) coreTableID() core.TableID { return core.TableID(t.id) }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.tbl.Schema() }

// NumPages returns the number of data pages.
func (t *Table) NumPages() int { return t.tbl.NumPages() }

// NumTuples returns the number of rows.
func (t *Table) NumTuples() int64 { return t.tbl.NumTuples() }

// LoadTable creates a table and populates it by calling load with an append
// function. Loading is instantaneous in virtual time (the paper's workloads
// are read-only; load cost is out of scope).
//
// add keeps nothing of the tuple it is given once it returns: the tuple is
// encoded into the table's pages, and only varchar strings are kept, by
// reference, in the column statistics (Go strings are immutable). A loader
// may therefore fill one Tuple per table and pass it for every row. A tuple
// add rejects leaves the table and its statistics as they were.
func (e *Engine) LoadTable(name string, schema *Schema, load func(add func(Tuple) error) error) (*Table, error) {
	return e.LoadTableInPool(name, "", schema, load)
}

// LoadTableInPool is LoadTable for a table served by the named extra buffer
// pool (declared in Config.Pools). Scans only coordinate within a pool: each
// pool has its own scan sharing manager, as in the paper. add's contract is
// LoadTable's: it keeps nothing of the tuple, so the loader may reuse it.
func (e *Engine) LoadTableInPool(name, pool string, schema *Schema, load func(add func(Tuple) error) error) (*Table, error) {
	rt, ok := e.pools[pool]
	if !ok {
		return nil, fmt.Errorf("scanshare: no buffer pool %q", pool)
	}
	b, err := heap.NewBuilder(e.dev, name, schema)
	if err != nil {
		return nil, err
	}
	stats := newColStats(schema)
	if err := load(statsObserver(stats, b.Append)); err != nil {
		return nil, fmt.Errorf("scanshare: loading %q: %w", name, err)
	}
	tbl, err := b.Finish()
	if err != nil {
		return nil, err
	}
	id, err := e.cat.Register(tbl)
	if err != nil {
		return nil, err
	}
	t := &Table{eng: e, id: id, tbl: tbl, rt: rt}
	rt.scans.addTable(t.coreTableID(), tbl.FirstPage())
	e.tableRT[id] = rt
	e.tableStats[id] = stats
	return t, nil
}

// Lookup returns a previously loaded table by name.
func (e *Engine) Lookup(name string) (*Table, error) {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &Table{eng: e, id: entry.ID, tbl: entry.Table, rt: e.tableRT[entry.ID]}, nil
}

// Now returns the engine's current virtual time.
func (e *Engine) Now() time.Duration { return e.kernel.Now() }

// DatabasePages returns the total page count across loaded tables; useful
// for sizing the buffer pool as a fraction of the database, as the paper
// does.
func (e *Engine) DatabasePages() int { return e.cat.TotalPages() }

// SharingSnapshot exposes the current scans and groups across every pool's
// scan sharing manager (only meaningful while a Run is in progress, e.g.
// from an observer).
func (e *Engine) SharingSnapshot() core.Snapshot {
	snap := e.defPool.ssm.Snapshot()
	for name, rt := range e.pools {
		if name == "" {
			continue
		}
		extra := rt.ssm.Snapshot()
		snap.Scans = append(snap.Scans, extra.Scans...)
		snap.Groups = append(snap.Groups, extra.Groups...)
	}
	return snap
}

// TelemetrySources bundles the engine's live metric surfaces — every
// buffer pool's per-shard counters and occupancy, and the cross-pool
// sharing snapshot — with the given activity collector, for a
// telemetry.Sampler or the Prometheus exporter. Pass the collector given
// to RunRealtime via RealtimeOptions.Collector (nil is fine: the counter
// section of every sample stays zero). Pools are listed in sorted name
// order so samples and expositions are deterministic.
func (e *Engine) TelemetrySources(col *metrics.Collector) telemetry.Sources {
	src := telemetry.Sources{
		Collector: col,
		Sharing:   e.SharingSnapshot,
	}
	names := make([]string, 0, len(e.pools))
	for name := range e.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rt := e.pools[name]
		src.Pools = append(src.Pools, telemetry.PoolSource{
			Name:        name,
			Capacity:    rt.pool.Capacity(),
			Policy:      rt.pool.Policy(),
			Translation: rt.pool.Translation(),
			Shards:      rt.pool.ShardStats,
			Occupancy:   rt.pool.ShardOccupancy,
		})
	}
	return src
}

// TraceSharing installs a callback that receives every scan sharing
// decision — placements, throttles, fairness exemptions, scan ends — from
// every buffer pool's sharing manager, tagged with the pool name. Pass nil
// to stop tracing. The callback runs inside the manager; keep it fast and
// do not call engine methods from it. TraceSharing composes with
// AttachTracer: both consumers see every event.
func (e *Engine) TraceSharing(fn func(pool string, ev SharingEvent)) {
	e.sharingFn = fn
	e.rewireEvents()
}

// AttachTracer journals every sharing decision and buffer eviction across
// all pools into tr's event ring. Pass nil to detach. The tracer's timeline
// carries manager virtual timestamps in virtual-time runs and the tracer
// clock's stamps for events emitted outside the managers (evictions), so
// attach a tracer whose clock matches the mode being observed (RunRealtime
// wires this automatically via RealtimeOptions.Tracer).
func (e *Engine) AttachTracer(tr *trace.Tracer) {
	e.tracer = tr
	for _, rt := range e.pools {
		rt.pool.SetTracer(tr)
	}
	e.rewireEvents()
}

// rewireEvents installs one per-pool dispatch closure feeding the attached
// tracer and the TraceSharing callback, or clears the hook when neither is
// set (keeping the managers' zero-cost no-observer fast path).
func (e *Engine) rewireEvents() {
	var obs func(core.Event)
	if e.tracer != nil {
		obs = trace.ManagerObserver(e.tracer)
	}
	for name, rt := range e.pools {
		fn := e.sharingFn
		if fn == nil && obs == nil {
			rt.ssm.SetOnEvent(nil)
			continue
		}
		name, obs := name, obs
		rt.ssm.SetOnEvent(func(ev SharingEvent) {
			if obs != nil {
				obs(ev)
			}
			if fn != nil {
				fn(name, ev)
			}
		})
	}
}

// Observe registers a callback invoked at the given virtual-time interval
// during the next Run or RunStreams call, with the current virtual time and
// a snapshot of the scan sharing manager. The observation stops when the
// run's queries finish. Use it to watch groups form, leaders get throttled,
// and scans come and go — the demo tool is built on it.
func (e *Engine) Observe(interval time.Duration, fn func(now time.Duration, snap SharingSnapshot)) error {
	if interval <= 0 {
		return fmt.Errorf("scanshare: non-positive observe interval %v", interval)
	}
	if fn == nil {
		return fmt.Errorf("scanshare: nil observer")
	}
	e.observers = append(e.observers, observer{interval: interval, fn: fn})
	return nil
}

type observer struct {
	interval time.Duration
	fn       func(time.Duration, SharingSnapshot)
}

// spawnObservers starts the registered observers for one run and clears the
// registration list. Each observer process exits once it is the only live
// process left, so it never keeps the simulation alive by itself.
func (e *Engine) spawnObservers() {
	obs := e.observers
	e.observers = nil
	for _, o := range obs {
		o := o
		e.kernel.Spawn("observer", 0, func(p *sim.Proc) {
			for {
				p.Sleep(o.interval)
				if e.kernel.Live() <= len(obs) {
					return
				}
				o.fn(p.Now(), e.SharingSnapshot())
			}
		})
	}
}

// Job is one query execution within a Run.
type Job struct {
	// Query to execute. Required.
	Query *Query
	// Start is the job's start time, relative to the beginning of the
	// Run.
	Start time.Duration
	// Stream labels the job for per-stream reporting.
	Stream int
}

// Run executes the jobs concurrently in virtual time and returns a report
// of per-query and device-level results. Mode selects baseline or sharing
// scans for the whole batch.
func Run(e *Engine, mode Mode, jobs []Job) (*Report, error) { return e.Run(mode, jobs) }

// Run executes the jobs concurrently in virtual time and returns a report.
func (e *Engine) Run(mode Mode, jobs []Job) (*Report, error) {
	if len(jobs) == 0 {
		return nil, errors.New("scanshare: Run with no jobs")
	}
	for i, j := range jobs {
		if j.Query == nil {
			return nil, fmt.Errorf("scanshare: job %d has no query", i)
		}
		if j.Start < 0 {
			return nil, fmt.Errorf("scanshare: job %d has negative start", i)
		}
		if j.Query.table.eng != e {
			return nil, fmt.Errorf("scanshare: job %d queries a table of another engine", i)
		}
	}

	runStart := e.kernel.Now()
	diskBefore := e.dev.Stats()
	poolsBefore := e.poolStatsSnapshot()
	e.spawnObservers()

	results := make([]QueryResult, len(jobs))
	errs := make([]error, len(jobs))
	for i, job := range jobs {
		i, job := i, job
		e.jobSeq++
		name := fmt.Sprintf("%s#%d", job.Query.label(), e.jobSeq)
		e.kernel.Spawn(name, job.Start, func(p *sim.Proc) {
			res, err := e.runQuery(p, mode, job.Query, runStart)
			if err != nil {
				errs[i] = err
				return
			}
			res.Stream = job.Stream
			res.Job = i
			results[i] = res
		})
	}
	end := e.kernel.Run()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return e.report(mode, results, runStart, end, diskBefore, poolsBefore), nil
}

// StreamItem is one step of a sequential query stream: an optional think
// time followed by a query.
type StreamItem struct {
	// Query to execute. Required.
	Query *Query
	// ThinkTime is an idle pause before the query starts.
	ThinkTime time.Duration
}

// RunStreams executes several sequential query streams concurrently — the
// shape of a TPC-H throughput run: each stream runs its queries back to
// back while all streams progress in parallel. Stream i's results carry
// Stream label i.
func (e *Engine) RunStreams(mode Mode, streams [][]StreamItem) (*Report, error) {
	if len(streams) == 0 {
		return nil, errors.New("scanshare: RunStreams with no streams")
	}
	for si, stream := range streams {
		if len(stream) == 0 {
			return nil, fmt.Errorf("scanshare: stream %d is empty", si)
		}
		for qi, item := range stream {
			if item.Query == nil {
				return nil, fmt.Errorf("scanshare: stream %d item %d has no query", si, qi)
			}
			if item.ThinkTime < 0 {
				return nil, fmt.Errorf("scanshare: stream %d item %d has negative think time", si, qi)
			}
			if item.Query.table.eng != e {
				return nil, fmt.Errorf("scanshare: stream %d item %d queries a table of another engine", si, qi)
			}
		}
	}

	runStart := e.kernel.Now()
	diskBefore := e.dev.Stats()
	poolsBefore := e.poolStatsSnapshot()
	e.spawnObservers()

	results := make([][]QueryResult, len(streams))
	errs := make([]error, len(streams))
	for si, stream := range streams {
		si, stream := si, stream
		e.jobSeq++
		e.kernel.Spawn(fmt.Sprintf("stream-%d#%d", si, e.jobSeq), 0, func(p *sim.Proc) {
			for qi, item := range stream {
				if item.ThinkTime > 0 {
					p.Sleep(item.ThinkTime)
				}
				res, err := e.runQuery(p, mode, item.Query, runStart)
				if err != nil {
					errs[si] = fmt.Errorf("stream %d query %d (%s): %w", si, qi, item.Query.label(), err)
					return
				}
				res.Stream = si
				res.Job = qi
				results[si] = append(results[si], res)
			}
		})
	}
	end := e.kernel.Run()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var flat []QueryResult
	for _, rs := range results {
		flat = append(flat, rs...)
	}
	return e.report(mode, flat, runStart, end, diskBefore, poolsBefore), nil
}

// runQuery executes one query on process p and fills in its result (except
// the Stream/Job labels, which the caller owns).
func (e *Engine) runQuery(p *sim.Proc, mode Mode, q *Query, runStart time.Duration) (QueryResult, error) {
	rt := q.table.rt
	env := &exec.Env{
		Proc:           p,
		Device:         e.dev,
		Pool:           rt.pool,
		Cost:           e.cost,
		CPU:            e.cpu,
		BusyRetryDelay: e.cfg.BusyRetryDelay,
	}
	if mode == Shared {
		env.SSM = rt.ssm
	}
	begin := p.Now()
	plan, err := q.plan(mode == Shared)
	if err != nil {
		return QueryResult{}, err
	}
	rows, err := exec.Collect(env, plan)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{
		Name:          q.label(),
		Start:         begin - runStart,
		End:           p.Now() - runStart,
		CPU:           env.Acct.CPU,
		CPUQueueWait:  env.Acct.CPUQueue,
		IOWait:        env.Acct.IO,
		BusyWait:      env.Acct.Busy,
		ThrottleWait:  env.Acct.Throttle,
		LogicalReads:  env.Acct.LogicalReads,
		PhysicalReads: env.Acct.PhysicalReads,
		TuplesRead:    env.Acct.TuplesRead,
		TuplesOut:     env.Acct.TuplesOut,
		Rows:          rows,
	}, nil
}

// PoolStats returns every pool's cumulative counters since engine creation,
// keyed by pool name (the default pool is ""). Safe to call concurrently
// with a running RunRealtime, so live reporters can poll it mid-run.
func (e *Engine) PoolStats() map[string]PoolStats {
	out := make(map[string]PoolStats, len(e.pools))
	for name, rt := range e.pools {
		out[name] = poolDeltaShards(rt.pool.ShardStats(), nil)
	}
	return out
}

// poolStatsSnapshot captures every pool's per-shard counters for later
// deltas.
func (e *Engine) poolStatsSnapshot() map[string][]buffer.Stats {
	out := make(map[string][]buffer.Stats, len(e.pools))
	for name, rt := range e.pools {
		out[name] = rt.pool.ShardStats()
	}
	return out
}

// report assembles a Report from the collected results and counter deltas.
func (e *Engine) report(mode Mode, results []QueryResult, runStart, end time.Duration, diskBefore disk.Stats, poolsBefore map[string][]buffer.Stats) *Report {
	r := &Report{
		Mode:     mode,
		Results:  results,
		Makespan: end - runStart,
		Disk:     diskDelta(e.dev.Stats().Sub(diskBefore)),
		Pools:    make(map[string]PoolStats, len(e.pools)),
	}
	for name, rt := range e.pools {
		delta := poolDeltaShards(rt.pool.ShardStats(), poolsBefore[name])
		r.Pools[name] = delta
		r.Pool.LogicalReads += delta.LogicalReads
		r.Pool.Hits += delta.Hits
		r.Pool.Misses += delta.Misses
		r.Pool.Aborts += delta.Aborts
		r.Pool.BusyRetries += delta.BusyRetries
		r.Pool.AllPinned += delta.AllPinned
		r.Pool.Evictions += delta.Evictions
		for i := range delta.EvictionsByPriority {
			r.Pool.EvictionsByPriority[i] += delta.EvictionsByPriority[i]
		}
		r.Sharing = r.Sharing.add(sharingStats(rt.ssm.Stats()))
	}
	for _, s := range e.dev.Series() {
		if s.Bucket >= runStart && s.Bucket <= end {
			r.DiskSeries = append(r.DiskSeries, DiskSample{
				Offset: s.Bucket - runStart,
				Reads:  s.Reads,
				Seeks:  s.Seeks,
				Bytes:  s.BytesRead,
			})
		}
	}
	sort.Slice(r.DiskSeries, func(i, j int) bool { return r.DiskSeries[i].Offset < r.DiskSeries[j].Offset })
	return r
}

package core

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// TableID identifies a table to the SSM. It is opaque; the engine's catalog
// IDs are used directly.
type TableID int

// ScanID identifies a registered scan.
type ScanID int64

// NoScan is returned in Placement.JoinedScan when the new scan did not join
// an ongoing scan.
const NoScan ScanID = -1

// Importance is a query's priority class, the "query priorities" extension
// the paper's conclusion proposes for making the throttling threshold
// dynamic: important queries surrender less of their time to group cohesion,
// background queries surrender more.
type Importance int

// Importance classes. The zero value is ImportanceNormal.
const (
	// ImportanceNormal uses the configured fairness cap unchanged.
	ImportanceNormal Importance = iota
	// ImportanceLow marks background work: its scans may be throttled
	// half again as much as normal ones.
	ImportanceLow
	// ImportanceHigh marks interactive work: its scans give up at most
	// 40% of the normal throttling allowance.
	ImportanceHigh
)

// String returns the class name.
func (i Importance) String() string {
	switch i {
	case ImportanceNormal:
		return "normal"
	case ImportanceLow:
		return "low"
	case ImportanceHigh:
		return "high"
	default:
		return fmt.Sprintf("Importance(%d)", int(i))
	}
}

// Valid reports whether i is a defined class.
func (i Importance) Valid() bool {
	return i >= ImportanceNormal && i <= ImportanceHigh
}

// fairnessFactor scales the throttling allowance for this class.
func (i Importance) fairnessFactor() float64 {
	switch i {
	case ImportanceLow:
		return 1.5
	case ImportanceHigh:
		return 0.4
	default:
		return 1
	}
}

// ScanOpts describes a scan being registered with StartScan.
type ScanOpts struct {
	// Table is the catalog ID of the scanned table.
	Table TableID
	// TablePages is the total number of pages of the table; positions and
	// distances live on the circle [0, TablePages).
	TablePages int
	// StartPage and EndPage bound the scan to the page range
	// [StartPage, EndPage). EndPage == 0 means "to the end of the table".
	StartPage, EndPage int
	// EstimatedDuration is the optimizer-style estimate of the total scan
	// time; together with the page count it seeds the speed estimate and
	// bounds throttling fairness. Zero means unknown.
	EstimatedDuration time.Duration
	// Importance scales the scan's throttling allowance; see Importance.
	Importance Importance
}

// Placement tells the caller where to begin scanning.
type Placement struct {
	// Origin is the table-relative page at which to start. The scan must
	// cover its whole range by scanning [Origin, EndPage) and then
	// wrapping to [StartPage, Origin).
	Origin int
	// JoinedScan is the ongoing scan whose position Origin was taken
	// from, or NoScan.
	JoinedScan ScanID
	// TrailingScan is set (and JoinedScan is NoScan) when the scan starts
	// at its own range start because an ongoing scan is just ahead of it:
	// trailing shares through the pool without a wrap-around re-read.
	TrailingScan ScanID
	// FromResidual is true when Origin was derived from the remembered
	// position of a recently finished scan.
	FromResidual bool
}

// Advice is the SSM's response to a progress report: how long the scan
// should pause before continuing (throttling), the priority at which it
// should release the pages it just processed, and how many pages it may
// process before reporting again.
type Advice struct {
	Wait     time.Duration
	Priority PagePriority
	// NextReportPages is the suggested distance to the next progress
	// report. It equals one prefetch extent unless adaptive reporting is
	// enabled and the scan has no coordination partners.
	NextReportPages int
}

// Stats counts SSM activity.
type Stats struct {
	ScansStarted       int64
	ScansFinished      int64
	JoinPlacements     int64 // scans placed at an ongoing scan's position
	TrailPlacements    int64 // scans started at their range start to trail a nearby scan
	ResidualPlacements int64 // scans placed at a finished scan's position
	ColdPlacements     int64 // scans started at the beginning of their range
	ThrottleEvents     int64
	ThrottleTime       time.Duration
	FairnessExemptions int64 // throttles skipped due to the 80% cap
	ProgressReports    int64 // ReportProgress calls accepted
	ScanDetaches       int64 // scans detached after persistent read failures
	ScanRejoins        int64 // detached scans re-admitted after recovery
}

// scanState is the SSM's record of one ongoing scan (the paper's per-scan
// attributes: location, remaining pages, speed, range, accumulated delay).
type scanState struct {
	id    ScanID
	table TableID

	tablePages int
	startPage  int // range [startPage, endPage)
	endPage    int
	origin     int // where the scan actually began (placement)
	length     int // endPage - startPage

	processed int // pages processed so far, monotone

	startTime     time.Duration
	lastUpdate    time.Duration
	lastProcessed int

	speed        float64 // pages/s, windowed over the last update interval
	initialSpeed float64
	estDuration  time.Duration
	importance   Importance

	throttled time.Duration // accumulated inserted wait

	// wake carries the manager's "your wait has lost its purpose" signal to
	// this scan while it is parked (ParkThrottled … SettleThrottle). It is
	// made at the first park and holds at most one token, so signalling never
	// blocks.
	wake   chan struct{}
	parked bool

	// detached marks a scan excluded from grouping, placement, and
	// throttling after persistent read failures, so healthy scans are
	// never chained to it. The rest of its state (position, speed,
	// accumulated throttle debt) is kept, which is what preserves the
	// fairness-cap accounting across a detach/rejoin cycle.
	detached bool

	// lastGapTrailer and lastGap remember the gap to the group trailer
	// observed at this scan's previous update, for the gap-trend check
	// that gates throttling.
	lastGapTrailer ScanID
	lastGap        int
}

// pos returns the scan's current table-relative page.
func (s *scanState) pos() int {
	off := (s.origin - s.startPage + s.processed) % s.length
	return s.startPage + off
}

// remainingPages returns how many pages the scan still has to process.
func (s *scanState) remainingPages() int { return s.length - s.processed }

// estTotalTime returns the best available estimate of the scan's total
// duration, for the throttling fairness cap.
func (s *scanState) estTotalTime() time.Duration {
	if s.estDuration > 0 {
		return s.estDuration
	}
	if s.speed > 0 {
		return time.Duration(float64(s.length) / s.speed * float64(time.Second))
	}
	return 0
}

// residual remembers where the last scan of a table finished, so a scan
// arriving into an idle system can pick up leftover buffer pages. pagesSeen
// snapshots the manager's global progress counter: once more than a
// poolful of pages has streamed through the buffer since the scan finished,
// its leftovers are gone and the memory is useless.
type residual struct {
	pos       int
	at        time.Duration
	pagesSeen int64
}

// Manager is the scan sharing manager. One Manager serves one buffer pool,
// as in the paper. It is safe for concurrent use.
type Manager struct {
	mu     sync.Mutex
	cfg    Config
	nextID ScanID
	scans  map[ScanID]*scanState
	// pending buffers decision events raised while mu is held; they are
	// handed to the observer by deliverAndUnlock once the state lock is
	// released. emitMu serializes deliveries so observers see events in
	// mutation order; it is always acquired while still holding mu
	// (hand-over-hand), never the other way around.
	emitMu  sync.Mutex
	pending []Event
	// lastFinished remembers, per table, where the most recently finished
	// scan stopped.
	lastFinished map[TableID]residual
	// pagesSeen counts pages reported by all scans ever; it approximates
	// buffer-pool churn without looking inside the pool.
	pagesSeen int64
	groups    []*group
	dirty     bool // groups need recomputation
	rg        regroupScratch
	// perTable counts the registered scans of each table, so a progress
	// report can tell in one lookup that it cannot change any group.
	perTable map[TableID]tableScans
	stats    Stats
	// readReads physical reads, as reported through ObserveReadCost, took
	// readTime together; zero reads means no caller ever priced a read and
	// throttling decides as the paper does, from distance alone.
	readReads int64
	readTime  time.Duration
	// parked lists the leaders waiting out a throttle on their wake channel.
	parked []*scanState
	// lastNow is the latest caller-supplied timestamp, used to stamp group
	// delta events raised by regroups that have no time of their own (for
	// example a Snapshot-triggered recomputation).
	lastNow time.Duration
}

// tableScans counts one table's registered scans; attached excludes the
// detached ones, which grouping does not see.
type tableScans struct {
	registered, attached int
}

// countScanLocked adjusts table's scan counts; an entry that reaches zero
// registered scans is dropped.
func (m *Manager) countScanLocked(table TableID, registered, attached int) {
	c := m.perTable[table]
	c.registered += registered
	c.attached += attached
	if c.registered == 0 {
		delete(m.perTable, table)
		return
	}
	m.perTable[table] = c
}

// touch advances lastNow; timestamps from concurrent scan workers may arrive
// slightly out of order, so it only moves forward.
func (m *Manager) touch(now time.Duration) {
	if now > m.lastNow {
		m.lastNow = now
	}
}

// NewManager creates an SSM with the given configuration.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{
		cfg:          cfg,
		scans:        make(map[ScanID]*scanState),
		lastFinished: make(map[TableID]residual),
		rg:           newRegroupScratch(),
		perTable:     make(map[TableID]tableScans),
	}, nil
}

// MustNewManager is NewManager for known-good configurations.
func MustNewManager(cfg Config) *Manager {
	m, err := NewManager(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns a copy of the manager's configuration. It takes the state
// lock because SetOnEvent mutates the configuration's observer field and
// Config is called from concurrently running scan operators.
func (m *Manager) Config() Config {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// SetOnEvent installs (or clears) the decision-event observer; see
// Config.OnEvent for the contract.
func (m *Manager) SetOnEvent(fn func(Event)) {
	m.mu.Lock()
	m.cfg.OnEvent = fn
	m.mu.Unlock()
}

// StartScan registers a new scan and decides where it should begin.
func (m *Manager) StartScan(opts ScanOpts, now time.Duration) (ScanID, Placement, error) {
	if opts.TablePages <= 0 {
		return 0, Placement{}, fmt.Errorf("core: scan of table %d with %d pages", opts.Table, opts.TablePages)
	}
	start, end := opts.StartPage, opts.EndPage
	if end == 0 {
		end = opts.TablePages
	}
	if start < 0 || end > opts.TablePages || start >= end {
		return 0, Placement{}, fmt.Errorf("core: scan range [%d,%d) invalid for table of %d pages", start, end, opts.TablePages)
	}
	if opts.EstimatedDuration < 0 {
		return 0, Placement{}, fmt.Errorf("core: negative duration estimate %v", opts.EstimatedDuration)
	}
	if !opts.Importance.Valid() {
		return 0, Placement{}, fmt.Errorf("core: invalid importance %d", opts.Importance)
	}

	m.mu.Lock()
	defer m.deliverAndUnlock()
	m.touch(now)

	s := &scanState{
		id:             m.nextID,
		table:          opts.Table,
		tablePages:     opts.TablePages,
		startPage:      start,
		endPage:        end,
		length:         end - start,
		startTime:      now,
		lastUpdate:     now,
		estDuration:    opts.EstimatedDuration,
		importance:     opts.Importance,
		lastGapTrailer: NoScan,
	}
	m.nextID++

	s.initialSpeed = m.cfg.DefaultSpeedPagesPerSec
	if opts.EstimatedDuration > 0 {
		s.initialSpeed = float64(s.length) / opts.EstimatedDuration.Seconds()
	}
	s.speed = s.initialSpeed

	pl := m.placeLocked(s, now)
	s.origin = pl.Origin

	m.scans[s.id] = s
	m.countScanLocked(s.table, 1, 1)
	m.dirty = true
	m.stats.ScansStarted++
	m.emit(Event{Kind: EventScanStarted, Time: now, Scan: s.id, Table: s.table, Placement: pl})
	switch {
	case pl.JoinedScan != NoScan:
		m.stats.JoinPlacements++
	case pl.TrailingScan != NoScan:
		m.stats.TrailPlacements++
	case pl.FromResidual:
		m.stats.ResidualPlacements++
	default:
		m.stats.ColdPlacements++
	}
	return s.id, pl, nil
}

// ReportProgress records that the scan has now processed pagesProcessed
// pages in total and returns throttling and priority advice. Scans are
// expected to call this at prefetch-extent granularity.
func (m *Manager) ReportProgress(id ScanID, pagesProcessed int, now time.Duration) (Advice, error) {
	m.mu.Lock()
	defer m.deliverAndUnlock()
	m.touch(now)

	s, ok := m.scans[id]
	if !ok {
		return Advice{}, fmt.Errorf("core: progress report for unknown scan %d", id)
	}
	if pagesProcessed < s.processed {
		return Advice{}, fmt.Errorf("core: scan %d progress went backwards: %d after %d", id, pagesProcessed, s.processed)
	}
	if pagesProcessed > s.length {
		return Advice{}, fmt.Errorf("core: scan %d processed %d of %d pages", id, pagesProcessed, s.length)
	}

	// Windowed speed estimate: dominated by the near past, so it captures
	// fluctuations caused by interactions with other ongoing scans.
	if elapsed := now - s.lastUpdate; elapsed > 0 && pagesProcessed > s.lastProcessed {
		s.speed = float64(pagesProcessed-s.lastProcessed) / elapsed.Seconds()
		s.lastUpdate = now
		s.lastProcessed = pagesProcessed
	}
	if pagesProcessed != s.processed {
		m.pagesSeen += int64(pagesProcessed - s.processed)
		s.processed = pagesProcessed
		// Groups are runs of attached scans of one table: a detached scan,
		// or the only attached scan of its table, moves without changing any.
		if !s.detached && m.perTable[s.table].attached >= 2 {
			m.dirty = true
		}
	}

	m.stats.ProgressReports++
	m.regroupLocked()
	m.wakeParkedLocked()
	g := m.groupOf(id)

	adv := Advice{
		Priority:        m.priorityFor(s, g),
		NextReportPages: m.reportIntervalLocked(s, g),
	}
	if m.cfg.Throttling && g != nil && len(g.members) >= 2 && g.leader == id {
		adv.Wait = m.throttleLocked(s, g, now)
	}
	return adv, nil
}

// reportIntervalLocked picks the scan's next progress-report distance: one
// extent normally; several extents when adaptive reporting is on and no
// other scan on the table could use fresher information.
func (m *Manager) reportIntervalLocked(s *scanState, g *group) int {
	extent := m.cfg.PrefetchExtentPages
	if !m.cfg.AdaptiveReporting {
		return extent
	}
	if g != nil && len(g.members) >= 2 {
		return extent
	}
	if m.perTable[s.table].registered >= 2 {
		return extent
	}
	return 4 * extent
}

// priorityFor implements the leader/trailer page prioritization: any group
// member with followers releases high, the trailer releases low, ungrouped
// scans release normal.
func (m *Manager) priorityFor(s *scanState, g *group) PagePriority {
	if !m.cfg.PriorityHints || g == nil || len(g.members) < 2 {
		return PageNormal
	}
	if g.trailer == s.id {
		return PageLow
	}
	return PageHigh
}

// throttleLocked computes the wait to insert into the leader's update call.
func (m *Manager) throttleLocked(leader *scanState, g *group, now time.Duration) time.Duration {
	threshold := m.cfg.throttleThresholdPages()
	if g.extent <= threshold {
		return 0
	}
	// A leader about to finish cannot stay with the group long enough for
	// the re-attached trailer to reuse anything; slowing it down is pure
	// cost. The same holds for scans only a few extents long — they are
	// done within the drift tolerance anyway. (Both guards keep short
	// range scans from being penalized, preserving the paper's "no query
	// shows a negative effect".)
	if leader.remainingPages() <= threshold || leader.length < 4*threshold {
		return 0
	}
	trailer := m.scans[g.trailer]
	if trailer == nil {
		return 0
	}
	// Throttling exists to stop the gap from *growing*. A trailer that is
	// catching up by itself — typically because it rides buffer hits while
	// the leader pays for the physical reads — needs no help, and waiting
	// for it would only burn the leader's fairness budget. Speed estimates
	// are too unreliable to decide this (a fresh trailer has only its
	// cost-model guess), so the decision uses the observed gap trend: the
	// leader remembers the gap to its trailer from its previous update and
	// only throttles when the gap widened.
	grew := leader.lastGapTrailer == trailer.id && g.extent > leader.lastGap
	leader.lastGapTrailer = trailer.id
	leader.lastGap = g.extent
	if !grew {
		return 0
	}
	// A wait buys the group the reads it would otherwise repeat, so it has
	// to cost less than they do. This is an observation, not a setting: with
	// no read ever priced the wait stands, as in the paper, where a read is
	// a disk access.
	excess := g.extent - threshold
	wait := m.waitFor(excess, trailer)
	if m.readReads > 0 {
		saved := float64(excess) * float64(m.readTime) / float64(m.readReads)
		if saved <= float64(wait) {
			return 0
		}
	}
	// Fairness cap: a scan delayed for more than MaxThrottleFraction of
	// its estimated total time is not slowed down anymore. The query's
	// importance class scales the cap (the paper's proposed dynamic
	// threshold): interactive queries surrender less, background more.
	if est := leader.estTotalTime(); est > 0 {
		frac := m.cfg.MaxThrottleFraction * leader.importance.fairnessFactor()
		if frac > 1 {
			frac = 1
		}
		allowance := time.Duration(frac*float64(est)) - leader.throttled
		if allowance <= 0 {
			m.stats.FairnessExemptions++
			m.emit(Event{Kind: EventFairnessExempted, Time: now, Scan: leader.id, Table: leader.table})
			return 0
		}
		if wait > allowance {
			wait = allowance
		}
	}
	return m.recordThrottle(leader, wait, g.extent, now)
}

// waitFor sizes the wait from the excess distance and the trailer's speed:
// while the leader sleeps, the trailer closes excessPages at its own pace.
func (m *Manager) waitFor(excessPages int, trailer *scanState) time.Duration {
	speed := trailer.speed
	if speed <= 0 {
		speed = trailer.initialSpeed
	}
	if speed <= 0 {
		return 0
	}
	wait := time.Duration(float64(excessPages) / speed * float64(time.Second))
	if wait > m.cfg.MaxWaitPerUpdate {
		wait = m.cfg.MaxWaitPerUpdate
	}
	return wait
}

func (m *Manager) recordThrottle(s *scanState, wait time.Duration, gap int, now time.Duration) time.Duration {
	if wait <= 0 {
		return 0
	}
	s.throttled += wait
	m.stats.ThrottleEvents++
	m.stats.ThrottleTime += wait
	m.emit(Event{Kind: EventThrottled, Time: now, Scan: s.id, Table: s.table, Wait: wait, GapPages: gap})
	return wait
}

// readCostWindow bounds the memory of the read-cost estimate: past this many
// reads both sums are halved, so the mean follows a store that changes speed
// while one slow read among a thousand barely moves it.
const readCostWindow = 1024

// ObserveReadCost tells the manager that reads physical page reads took total
// together, as measured by the caller that led them. The mean cost per read
// is what throttling weighs a wait against. Callers that never report (the
// virtual-time executor) leave throttling exactly as the paper describes it.
func (m *Manager) ObserveReadCost(reads int, total time.Duration) {
	if reads <= 0 || total < 0 {
		return
	}
	m.mu.Lock()
	m.readReads += int64(reads)
	m.readTime += total
	if m.readReads > readCostWindow {
		m.readReads /= 2
		m.readTime /= 2
	}
	m.mu.Unlock()
}

// ParkThrottled is called by a scan about to wait out the throttle its last
// progress report advised. It returns the channel on which the manager
// signals that the wait has lost its purpose: a ReportProgress, EndScan or
// DetachScan brought the group's extent back within the threshold, or left
// the scan without a group to lead. The caller waits on it outside the
// manager, with the advised wait as its deadline, and then calls
// SettleThrottle whichever way the wait ended. If the wait is already
// pointless the channel is ready on return. An unknown scan gets a nil
// channel, which never is.
func (m *Manager) ParkThrottled(id ScanID) <-chan struct{} {
	m.mu.Lock()
	defer m.deliverAndUnlock()
	s, ok := m.scans[id]
	if !ok {
		return nil
	}
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
	}
	select {
	case <-s.wake: // a signal that arrived after an earlier wait's deadline
	default:
	}
	if !s.parked {
		s.parked = true
		m.parked = append(m.parked, s)
	}
	m.wakeParkedLocked()
	return s.wake
}

// SettleThrottle ends a throttle wait: the scan was advised to wait planned
// and waited for waited. The advice was charged in full when it was given;
// the difference is settled here, so that the fairness budget and
// Stats.ThrottleTime carry the time really spent waiting.
func (m *Manager) SettleThrottle(id ScanID, planned, waited time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.scans[id]
	if !ok {
		return fmt.Errorf("core: SettleThrottle for unknown scan %d", id)
	}
	m.unparkLocked(s)
	s.throttled += waited - planned
	m.stats.ThrottleTime += waited - planned
	return nil
}

// unparkLocked takes s off the parked list, if it is on it.
func (m *Manager) unparkLocked(s *scanState) {
	if !s.parked {
		return
	}
	s.parked = false
	i := slices.Index(m.parked, s)
	m.parked = slices.Delete(m.parked, i, i+1)
}

// wakeParkedLocked signals every parked scan that no longer leads a group
// stretched past the throttle threshold. The send never blocks: a token
// already in the channel says the same thing.
func (m *Manager) wakeParkedLocked() {
	if len(m.parked) == 0 {
		return
	}
	m.regroupLocked()
	threshold := m.cfg.throttleThresholdPages()
	for _, s := range m.parked {
		if g := m.groupOf(s.id); g == nil || g.leader != s.id || g.extent <= threshold {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
}

// DetachScan excludes an ongoing scan from group coordination: it no longer
// joins groups, attracts placements, or participates in throttling, so a
// scan whose reads persistently stall cannot chain a healthy group to its
// (lack of) progress. The scan stays registered and keeps reporting
// progress; its accumulated throttle debt is preserved, so the fairness cap
// carries across a detach/rejoin cycle. Detaching an already-detached scan
// is a no-op.
func (m *Manager) DetachScan(id ScanID, now time.Duration) error {
	m.mu.Lock()
	defer m.deliverAndUnlock()
	m.touch(now)
	s, ok := m.scans[id]
	if !ok {
		return fmt.Errorf("core: DetachScan for unknown scan %d", id)
	}
	if s.detached {
		return nil
	}
	s.detached = true
	m.countScanLocked(s.table, 0, -1)
	m.dirty = true
	m.stats.ScanDetaches++
	m.emit(Event{Kind: EventScanDetached, Time: now, Scan: id, Table: s.table, GapPages: s.pos()})
	m.wakeParkedLocked()
	return nil
}

// RejoinScan re-admits a detached scan to group coordination once its reads
// recover. The scan is re-placed implicitly: the next regrouping considers
// its current position, so it merges back into whatever group is now within
// reach. Rejoining a scan that is not detached is a no-op.
func (m *Manager) RejoinScan(id ScanID, now time.Duration) error {
	m.mu.Lock()
	defer m.deliverAndUnlock()
	m.touch(now)
	s, ok := m.scans[id]
	if !ok {
		return fmt.Errorf("core: RejoinScan for unknown scan %d", id)
	}
	if !s.detached {
		return nil
	}
	s.detached = false
	m.countScanLocked(s.table, 0, 1)
	m.dirty = true
	m.stats.ScanRejoins++
	m.emit(Event{Kind: EventScanRejoined, Time: now, Scan: id, Table: s.table, GapPages: s.pos()})
	return nil
}

// EndScan deregisters a finished scan and remembers its final position so a
// future scan on the same table can reuse leftover buffer pages.
func (m *Manager) EndScan(id ScanID, now time.Duration) error {
	m.mu.Lock()
	defer m.deliverAndUnlock()
	m.touch(now)
	s, ok := m.scans[id]
	if !ok {
		return fmt.Errorf("core: EndScan for unknown scan %d", id)
	}
	m.lastFinished[s.table] = residual{pos: s.pos(), at: now, pagesSeen: m.pagesSeen}
	delete(m.scans, id)
	attached := -1
	if s.detached {
		attached = 0
	}
	m.countScanLocked(s.table, -1, attached)
	m.dirty = true
	m.stats.ScansFinished++
	m.emit(Event{Kind: EventScanEnded, Time: now, Scan: id, Table: s.table})
	m.unparkLocked(s)
	m.wakeParkedLocked()
	return nil
}

// ActiveScans returns the number of registered, unfinished scans.
func (m *Manager) ActiveScans() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.scans)
}

// Stats returns a snapshot of the activity counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ScanPosition is one scan's footprint, progress and speed as AppendScans
// reports them: the scan visits table pages [Start, End) circularly from
// Origin, has processed Processed of them, and moves at Speed pages per
// second. It is what the predictive replacement policy
// (buffer.PolicyPredictive) estimates a page's time to next use from.
type ScanPosition struct {
	Table              TableID
	Start, End, Origin int
	Processed          int
	// Speed is the manager's current speed estimate, falling back to the
	// a-priori estimate while no measured speed exists; it can be zero if
	// neither is known. Under the virtual-time harness it is derived from
	// clocked progress reports, so it is fully deterministic.
	Speed float64
}

// AppendScans appends the position of every registered scan that is not
// detached (a detached scan's reports stop, so its position goes stale) to
// dst and returns the extended slice and true. It never waits: while another
// goroutine holds the manager — a report, which can also be waiting to hand
// its events to the observer — it returns dst and false at once, so a caller
// holding a lock of its own (a buffer pool choosing a victim) keeps the
// positions it read last instead of queueing behind the manager. It
// allocates nothing once dst has room. The order is unspecified.
func (m *Manager) AppendScans(dst []ScanPosition) ([]ScanPosition, bool) {
	if !m.mu.TryLock() {
		return dst, false
	}
	for _, s := range m.scans {
		if s.detached {
			continue
		}
		speed := s.speed
		if speed <= 0 {
			speed = s.initialSpeed
		}
		dst = append(dst, ScanPosition{
			Table: s.table, Start: s.startPage, End: s.endPage, Origin: s.origin,
			Processed: s.processed, Speed: speed,
		})
	}
	m.mu.Unlock()
	return dst, true
}

// MoveOrigin re-places scan id, before its first page, at origin: for a
// consumer that learns where it really begins only after StartScan, such as
// a push subscriber admitted at the stream's current position rather than
// at its placement. It fails once the scan has reported progress, or if
// origin lies outside the scan's range.
func (m *Manager) MoveOrigin(id ScanID, origin int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.scans[id]
	switch {
	case !ok:
		return fmt.Errorf("core: MoveOrigin for unknown scan %d", id)
	case s.processed != 0:
		return fmt.Errorf("core: scan %d moved after processing %d pages", id, s.processed)
	case origin < s.startPage || origin >= s.endPage:
		return fmt.Errorf("core: origin %d outside scan %d's range [%d,%d)", origin, id, s.startPage, s.endPage)
	}
	if s.origin != origin {
		s.origin = origin
		m.dirty = true
	}
	return nil
}

// groupOf returns the group containing scan id, or nil. Groups must be
// current (regroupLocked) when called.
func (m *Manager) groupOf(id ScanID) *group {
	for _, g := range m.groups {
		for _, member := range g.members {
			if member == id {
				return g
			}
		}
	}
	return nil
}

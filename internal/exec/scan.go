package exec

import (
	"fmt"
	"time"

	"scanshare/internal/core"
	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// Operator is the volcano-style iterator every plan node implements. Open
// prepares the node, Next produces the next tuple (ok=false at end of
// stream), Close releases resources.
//
// A tuple returned by Next belongs to the caller only until the next call of
// Next or Close: the slice is reused, and the varchars in it may be views
// into the page a TableScan below is serving, whose bytes are not the
// caller's either. An operator or caller that keeps a tuple or a value past
// that point clones it (record.Tuple.Clone, record.Value.Clone) — Collect,
// Sort, the HashJoin build side and the aggregation state do.
type Operator interface {
	Open(env *Env) error
	Next() (record.Tuple, bool, error)
	Close() error
}

// TableScan reads a page range of a heap table and emits its tuples, the
// columns in Columns decoded, varchars as views into the page (see Operator).
//
// With Shared=false it behaves like a classic scanner: front-to-back reads,
// default release priority. With Shared=true and a non-nil env.SSM, it
// registers with the scan sharing manager, starts wherever the manager
// places it (wrapping around the end of its range), reports progress at
// extent granularity, sleeps through throttle advice, and releases pages at
// the advised priority.
//
// Which columns it decodes never changes what it reads, charges or reports:
// the virtual-time cost of a scan is a function of its pages and CPUWeight.
type TableScan struct {
	Table   *heap.Table
	TableID core.TableID
	// Columns is the set of columns the plan above the scan reads,
	// compiled by the planner; the other columns of each tuple read as
	// zero values. The zero value decodes every column, for operators
	// above whose reads are unknown. An Aggregate folds a scan with a
	// compiled set, directly or through one Filter, a page at a time.
	Columns record.Columns
	// StartPage and EndPage restrict the scan to [StartPage, EndPage) in
	// table-relative pages; EndPage == 0 means the end of the table.
	StartPage, EndPage int
	// CPUWeight scales the per-tuple CPU cost to model the query's
	// expression complexity (1 = cheap I/O-bound predicate, 8+ =
	// expensive Q1-style arithmetic).
	CPUWeight float64
	// Shared selects the sharing scan protocol.
	Shared bool
	// EstimatedDuration optionally seeds the SSM's speed estimate; when
	// zero, Open derives an estimate from the cost and disk models.
	EstimatedDuration time.Duration
	// Importance is the query's priority class, scaling how much of this
	// scan's time the SSM may spend on throttling.
	Importance core.Importance

	env      *Env
	cols     record.Columns // Columns, or every column
	scanID   core.ScanID
	origin   int // first page of the wrap-around order
	start    int
	end      int
	visited  int            // pages processed so far
	page     record.Vectors // the current page, decoded
	pageIdx  int            // next tuple on the current page
	scratch  record.Tuple
	opened   bool
	sharing  bool
	priority core.PagePriority
	interval int
	reportAt int // visited-page count of the next progress report
}

// Open validates the scan and, in sharing mode, registers it with the SSM.
func (t *TableScan) Open(env *Env) error {
	if t.opened {
		return fmt.Errorf("exec: scan opened twice")
	}
	if err := env.Validate(); err != nil {
		return err
	}
	if t.Table == nil {
		return fmt.Errorf("exec: scan of nil table")
	}
	if t.CPUWeight < 0 {
		return fmt.Errorf("exec: negative CPUWeight %g", t.CPUWeight)
	}
	t.cols = t.Columns
	if t.cols.Schema() == nil {
		t.cols = record.AllColumns(t.Table.Schema())
	} else if t.cols.Schema() != t.Table.Schema() {
		return fmt.Errorf("exec: scan of %q decodes columns of another schema", t.Table.Name())
	}
	t.env = env
	t.start = t.StartPage
	t.end = t.EndPage
	if t.end == 0 {
		t.end = t.Table.NumPages()
	}
	if t.start < 0 || t.end > t.Table.NumPages() || t.start >= t.end {
		return fmt.Errorf("exec: scan range [%d,%d) invalid for table %q with %d pages",
			t.start, t.end, t.Table.Name(), t.Table.NumPages())
	}
	t.origin = t.start
	t.priority = core.PageNormal
	t.sharing = t.Shared && env.SSM != nil
	if t.sharing {
		t.interval = env.UpdateEveryPages
		if t.interval <= 0 {
			t.interval = env.SSM.Config().PrefetchExtentPages
		}
		est := t.EstimatedDuration
		if est == 0 {
			est = t.estimateDuration()
		}
		id, placement, err := env.SSM.StartScan(core.ScanOpts{
			Table:             t.TableID,
			TablePages:        t.Table.NumPages(),
			StartPage:         t.start,
			EndPage:           t.end,
			EstimatedDuration: est,
			Importance:        t.Importance,
		}, env.now())
		if err != nil {
			return err
		}
		t.scanID = id
		t.origin = placement.Origin
		t.reportAt = t.interval
	}
	t.opened = true
	return nil
}

// estimateDuration is the optimizer-style estimate handed to the SSM: the
// expected time of a cold, unshared execution of this scan. Like a real
// cost model it charges transfer and CPU per page plus an expected seek
// share — under concurrent scans roughly every other read loses
// sequentiality to interleaving, so half a seek per page is assumed. The
// estimate seeds the SSM's speed tracking and bounds throttling fairness;
// an estimate that ignored seeks entirely would exhaust the fairness
// allowance long before throttling could pay off.
func (t *TableScan) estimateDuration() time.Duration {
	pages := t.end - t.start
	model := t.env.Device.Model()
	perPage := model.TransferPerPage + model.SeekTime/2 + t.env.Cost.PerPageCPU
	tuplesPerPage := float64(t.Table.NumTuples()) / float64(t.Table.NumPages())
	perPage += time.Duration(tuplesPerPage * t.CPUWeight * float64(t.env.Cost.PerTupleCPU))
	return time.Duration(pages) * perPage
}

// pageNo returns the table-relative page for the i-th visited page in
// wrap-around order.
func (t *TableScan) pageNo(i int) int {
	length := t.end - t.start
	return t.start + (t.origin-t.start+i)%length
}

// Next emits the next tuple, loading and processing pages as needed.
func (t *TableScan) Next() (record.Tuple, bool, error) {
	if !t.opened {
		return nil, false, fmt.Errorf("exec: Next on unopened scan")
	}
	for t.pageIdx >= t.page.Len() {
		view, ok, err := t.loadNextPage()
		if err != nil || !ok {
			return nil, false, err
		}
		// Decode the page once, a column at a time; each tuple is then
		// built from the vectors.
		t.page.Reset(t.cols)
		if err := view.AppendTo(&t.page); err != nil {
			return nil, false, err
		}
		t.pageIdx = 0
	}
	t.scratch = t.page.Row(t.scratch, t.pageIdx)
	tup := t.scratch
	t.pageIdx++
	t.env.Acct.TuplesRead++
	return tup, true, nil
}

// nextPage is Next a page at a time, for a consumer that decodes and folds
// the page's tuples in one loop: it loads the next page in scan order and
// returns it, and its tuples count as read. ok is false at the end of the
// scan. Do not mix it with Next on one scan.
func (t *TableScan) nextPage() (view heap.PageView, ok bool, err error) {
	if !t.opened {
		return heap.PageView{}, false, fmt.Errorf("exec: nextPage on unopened scan")
	}
	view, ok, err = t.loadNextPage()
	if ok {
		t.env.Acct.TuplesRead += int64(view.NumTuples())
	}
	return view, ok, err
}

// loadNextPage fetches the next page in scan order, charges its processing
// cost, releases it at the advised priority, and — in sharing mode —
// reports progress and applies throttle advice at extent boundaries. ok is
// false once every page has been visited.
func (t *TableScan) loadNextPage() (heap.PageView, bool, error) {
	if t.visited >= t.end-t.start {
		return heap.PageView{}, false, nil
	}
	pid, err := t.Table.PageID(t.pageNo(t.visited))
	if err != nil {
		return heap.PageView{}, false, err
	}
	data, err := t.env.fetchPage(pid)
	if err != nil {
		return heap.PageView{}, false, err
	}
	view, err := heap.ViewColumns(t.cols, data)
	if err != nil {
		t.env.releasePage(pid, t.priority)
		return heap.PageView{}, false, err
	}

	// Charge the page's processing cost up front, at page granularity:
	// one simulator event per page instead of per tuple.
	cpu := t.env.Cost.PerPageCPU +
		time.Duration(float64(view.NumTuples())*t.CPUWeight*float64(t.env.Cost.PerTupleCPU))
	t.env.chargeCPU(cpu)

	t.visited++
	if t.sharing && (t.visited >= t.reportAt || t.visited == t.end-t.start) {
		adv, err := t.env.SSM.ReportProgress(t.scanID, t.visited, t.env.now())
		if err != nil {
			t.env.releasePage(pid, t.priority)
			return heap.PageView{}, false, err
		}
		t.priority = adv.Priority
		next := adv.NextReportPages
		if next <= 0 {
			next = t.interval
		}
		t.reportAt = t.visited + next
		if adv.Wait > 0 {
			t.env.chargeThrottle(adv.Wait)
		}
	}

	if err := t.env.releasePage(pid, t.priority); err != nil {
		return heap.PageView{}, false, err
	}
	return view, true, nil
}

// Close deregisters a sharing scan from the SSM. It is safe to call on a
// scan whose Open failed.
func (t *TableScan) Close() error {
	if !t.opened {
		return nil
	}
	t.opened = false
	if t.sharing {
		return t.env.SSM.EndScan(t.scanID, t.env.now())
	}
	return nil
}

// Package exec is the query execution layer: volcano-style operators over
// heap tables, the buffer pool, and the simulated disk, with per-query cost
// accounting.
//
// The package contains the two scan operators at the heart of the paper:
//
//   - TableScan with Shared=false is the baseline scanner: it reads its page
//     range front to back and releases every page at the default priority.
//     This is "vanilla DB2" in the experiments.
//   - TableScan with Shared=true is the sharing scanner: it asks the scan
//     sharing manager where to start, scans with wrap-around from there,
//     reports its progress at prefetch-extent granularity, sleeps when the
//     manager throttles it, and releases pages at the priority the manager
//     advises.
//
// Both work page at a time. A scan decodes only the columns its plan reads
// (TableScan.Columns, compiled by the planner), and an Aggregate over a scan
// — directly or through one Filter — hands each page to the aggregation
// kernel (kernel.go), the one the GroupByConsumer runs on a delivered page.
// A plan whose reads are unknown, such as one under an opaque predicate,
// decodes every column and pulls tuples through the operators one at a
// time, and the kernel folds each as a batch of one row. A scan waiting for a page another scan is still
// reading polls the pool through sim.Proc.Poll, so the kernel asks on its
// behalf and resumes it only with a hit or a miss.
//
// Every unit of simulated work — CPU per tuple batch, latency per physical
// read, wait per throttle — is charged to the process's virtual clock and to
// the query's accounting record, so experiments can report the same
// user/wait time decomposition the paper measures with iostat. What a scan
// decodes and how it folds charge nothing.
package exec

import (
	"fmt"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/sim"
)

// CostModel holds the CPU cost parameters of query processing.
type CostModel struct {
	// PerPageCPU is the fixed processing cost of visiting a page (slot
	// directory walk, buffer bookkeeping).
	PerPageCPU time.Duration
	// PerTupleCPU is the cost of decoding one tuple and evaluating a
	// baseline predicate on it. Scan operators scale it by their
	// CPUWeight to model cheap (Q6-like) versus expensive (Q1-like)
	// expression work.
	PerTupleCPU time.Duration
}

// DefaultCostModel returns the CPU model used by the experiment harness,
// calibrated so that a weight-1 scan is I/O-bound and a weight-8+ scan is
// CPU-bound under the default disk model.
func DefaultCostModel() CostModel {
	return CostModel{
		PerPageCPU:  20 * time.Microsecond,
		PerTupleCPU: 2 * time.Microsecond,
	}
}

// Validate reports whether the model is usable.
func (c CostModel) Validate() error {
	if c.PerPageCPU < 0 || c.PerTupleCPU < 0 {
		return fmt.Errorf("exec: negative CPU cost in %+v", c)
	}
	return nil
}

// Acct accumulates where a query's virtual time went, mirroring the paper's
// user/system/idle/wait decomposition: CPU is "user time", IO is time blocked
// on physical reads, Busy is time spent waiting for pages being read by
// someone else (or for a free frame), and Throttle is wait inserted by the
// scan sharing manager.
type Acct struct {
	CPU      time.Duration
	IO       time.Duration
	Busy     time.Duration
	Throttle time.Duration
	// CPUQueue is time spent waiting for a CPU core when the engine
	// models a bounded core count; it is part of WallTime but not of CPU
	// (which counts pure service time).
	CPUQueue time.Duration

	LogicalReads  int64 // page requests issued to the buffer pool
	PhysicalReads int64 // page requests that went to disk
	TuplesRead    int64
	TuplesOut     int64
}

// WallTime returns the total accounted virtual time.
func (a Acct) WallTime() time.Duration {
	return a.CPU + a.CPUQueue + a.IO + a.Busy + a.Throttle
}

// Add returns the element-wise sum of two accounting records.
func (a Acct) Add(b Acct) Acct {
	return Acct{
		CPU:           a.CPU + b.CPU,
		CPUQueue:      a.CPUQueue + b.CPUQueue,
		IO:            a.IO + b.IO,
		Busy:          a.Busy + b.Busy,
		Throttle:      a.Throttle + b.Throttle,
		LogicalReads:  a.LogicalReads + b.LogicalReads,
		PhysicalReads: a.PhysicalReads + b.PhysicalReads,
		TuplesRead:    a.TuplesRead + b.TuplesRead,
		TuplesOut:     a.TuplesOut + b.TuplesOut,
	}
}

// Env is the execution context of one query: the simulated process it runs
// on, the storage stack it reads through, and the sharing manager it
// coordinates with (nil for baseline runs).
type Env struct {
	Proc   *sim.Proc
	Device *disk.Device
	Pool   *buffer.Pool
	SSM    *core.Manager // nil disables scan sharing entirely
	Cost   CostModel
	// CPU optionally bounds how much query CPU work can run in parallel
	// (an n-core machine). Nil means unlimited cores.
	CPU *sim.Resource

	// BusyRetryDelay is how long a scan backs off before re-requesting a
	// page whose read is in flight elsewhere.
	BusyRetryDelay time.Duration

	// UpdateEveryPages is the progress-report interval of shared scans,
	// in pages; it defaults to the SSM's prefetch extent.
	UpdateEveryPages int

	Acct Acct

	// retry is retryAcquire as a func value, made on the first wait so
	// that a wait allocates nothing; the wait* fields are its page and
	// the pool's last answer.
	retry      func() bool
	waitPage   disk.PageID
	waitStatus buffer.Status
	waitData   []byte
}

// Validate reports whether the environment is usable.
func (e *Env) Validate() error {
	if e.Proc == nil {
		return fmt.Errorf("exec: Env without process")
	}
	if e.Device == nil {
		return fmt.Errorf("exec: Env without device")
	}
	if e.Pool == nil {
		return fmt.Errorf("exec: Env without buffer pool")
	}
	if err := e.Cost.Validate(); err != nil {
		return err
	}
	if e.BusyRetryDelay <= 0 {
		return fmt.Errorf("exec: non-positive BusyRetryDelay %v", e.BusyRetryDelay)
	}
	return nil
}

// now returns the current virtual time.
func (e *Env) now() time.Duration { return e.Proc.Now() }

// chargeCPU advances virtual time by d of CPU work, queueing for a core
// when the environment models a bounded core count.
func (e *Env) chargeCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	if e.CPU != nil {
		latency := e.CPU.Reserve(e.now(), d)
		e.Proc.Sleep(latency)
		e.Acct.CPU += d
		e.Acct.CPUQueue += latency - d
		return
	}
	e.Proc.Sleep(d)
	e.Acct.CPU += d
}

// chargeThrottle advances virtual time by d as SSM-inserted wait.
func (e *Env) chargeThrottle(d time.Duration) {
	if d <= 0 {
		return
	}
	e.Proc.Sleep(d)
	e.Acct.Throttle += d
}

// fetchPage pins page pid, reading it from disk on a miss and backing off
// while another scan's read of the same page is in flight. The returned
// bytes are valid until the page is released and must not be modified.
func (e *Env) fetchPage(pid disk.PageID) ([]byte, error) {
	st, data := e.Pool.Acquire(pid)
	if st == buffer.Busy || st == buffer.AllPinned {
		// Re-request the page every BusyRetryDelay. The kernel asks the
		// pool on the process's behalf and resumes it with a hit or a
		// miss. AllPinned gets the same retry as Busy here: simulated
		// processes only unpin when they run, virtual time is free, and
		// the next release makes the retry succeed. (The realtime runner,
		// where waiting costs wall time, backs off much longer for
		// AllPinned.)
		if e.retry == nil {
			e.retry = e.retryAcquire
		}
		e.waitPage = pid
		e.Proc.Poll(e.BusyRetryDelay, e.retry)
		st, data = e.waitStatus, e.waitData
		e.waitData = nil
	}
	switch st {
	case buffer.Hit:
		e.Acct.LogicalReads++
		return data, nil
	case buffer.Miss:
		e.Acct.LogicalReads++
		e.Acct.PhysicalReads++
		data, latency, err := e.Device.Read(e.now(), pid)
		if err != nil {
			e.Pool.Abort(pid)
			return nil, err
		}
		// Model the I/O in flight: time passes before the frame
		// becomes valid, and concurrent requesters see Busy until then.
		e.Proc.Sleep(latency)
		e.Acct.IO += latency
		if err := e.Pool.Fill(pid, data); err != nil {
			return nil, err
		}
		return data, nil
	default:
		return nil, fmt.Errorf("exec: unexpected acquire status %v", st)
	}
}

// retryAcquire is fetchPage's poll condition: one back-off period has
// passed, ask the pool for waitPage again.
func (e *Env) retryAcquire() bool {
	e.Acct.Busy += e.BusyRetryDelay
	e.waitStatus, e.waitData = e.Pool.Acquire(e.waitPage)
	return e.waitStatus != buffer.Busy && e.waitStatus != buffer.AllPinned
}

// releasePage returns a pinned page to the pool at the given SSM hint.
func (e *Env) releasePage(pid disk.PageID, hint core.PagePriority) error {
	return e.Pool.Release(pid, poolPriority(hint))
}

// poolPriority maps the SSM's engine-agnostic hint onto the buffer pool's
// priority levels.
func poolPriority(hint core.PagePriority) buffer.Priority {
	switch hint {
	case core.PageLow:
		return buffer.PriorityLow
	case core.PageHigh:
		return buffer.PriorityHigh
	default:
		return buffer.PriorityNormal
	}
}

package buffer

import (
	"errors"
	"testing"

	"scanshare/internal/disk"
	"scanshare/internal/trace"
)

func TestAbortCorrectsMissAccounting(t *testing.T) {
	p := MustNewPool(4)

	// Two delivered misses, one aborted one (failed read), one hit.
	load(t, p, 1)
	load(t, p, 2)
	if st, _ := p.Acquire(3); st != Miss {
		t.Fatalf("acquire 3: %v, want miss", st)
	}
	if err := p.Abort(3); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	p.Release(1, PriorityNormal)
	if st := load(t, p, 1); st != Hit {
		t.Fatalf("re-acquire 1: %v, want hit", st)
	}

	s := p.Stats()
	if s.Misses != 3 || s.Aborts != 1 || s.Fills != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 misses, 1 abort, 2 fills, 1 hit", s)
	}
	// Pages actually handed to callers: pages 1 (miss), 2 (miss), 1 (hit).
	if got := s.PagesDelivered(); got != 3 {
		t.Errorf("PagesDelivered = %d, want 3", got)
	}
	if s.Misses != s.Fills+s.Aborts {
		t.Errorf("Misses (%d) != Fills (%d) + Aborts (%d)", s.Misses, s.Fills, s.Aborts)
	}
	// HitRatio excludes the aborted miss from the denominator: 1 hit out of
	// 3 delivered acquires, not 1 out of 4.
	if got, want := s.HitRatio(), 1.0/3.0; got != want {
		t.Errorf("HitRatio = %g, want %g", got, want)
	}
	p.CheckInvariants()
}

func TestHitRatioAllAborted(t *testing.T) {
	p := MustNewPool(2)
	if st, _ := p.Acquire(1); st != Miss {
		t.Fatal("expected miss")
	}
	p.Abort(1)
	if got := p.Stats().HitRatio(); got != 0 {
		t.Errorf("HitRatio with only aborted reads = %g, want 0", got)
	}
}

func TestAllPinnedSentinel(t *testing.T) {
	p := MustNewPool(2)
	load(t, p, 1)
	load(t, p, 2)

	st, _ := p.Acquire(3)
	if st != AllPinned {
		t.Fatalf("acquire into fully pinned pool: %v, want all-pinned", st)
	}
	if !errors.Is(st.Err(), ErrAllPinned) {
		t.Errorf("Status.Err() = %v, want ErrAllPinned", st.Err())
	}
	if s := p.Stats(); s.AllPinned != 1 || s.BusyRetries != 0 {
		t.Errorf("stats = %+v, want 1 all-pinned, 0 busy", s)
	}
	for _, ok := range []Status{Hit, Miss, Busy} {
		if ok.Err() != nil {
			t.Errorf("Status(%v).Err() = %v, want nil", ok, ok.Err())
		}
	}
}

func TestFullPoolWithInflightReadIsBusy(t *testing.T) {
	// One frame is pending (read in flight), the other pinned: the pool is
	// full but the in-flight read will free a frame, so the right answer is
	// Busy, not AllPinned.
	p := MustNewPool(2)
	load(t, p, 1) // pinned, valid
	if st, _ := p.Acquire(2); st != Miss {
		t.Fatal("expected miss to reserve the pending frame")
	}
	// Frame for page 2 is pending now; pool is full.
	if st, _ := p.Acquire(3); st != Busy {
		t.Errorf("acquire with an in-flight read: want busy")
	}
	if s := p.Stats(); s.BusyRetries != 1 || s.AllPinned != 0 {
		t.Errorf("stats = %+v, want 1 busy, 0 all-pinned", s)
	}
	p.CheckInvariants()
}

func TestPoolEmitsEvictionTraceEvents(t *testing.T) {
	tr := trace.NewTracer(nil)
	rec := &trace.Recorder{}
	tr.Attach(rec)

	p := MustNewPool(2)
	p.SetTracer(tr)
	load(t, p, 1)
	p.Release(1, PriorityLow)
	load(t, p, 2)
	p.Release(2, PriorityHigh)
	load(t, p, 3) // evicts page 1 (low beats high)
	tr.Flush()

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1 eviction", len(evs))
	}
	ev := evs[0]
	if ev.Kind != trace.KindEvict || ev.Page != 1 || Priority(ev.Prio) != PriorityLow {
		t.Errorf("eviction event = %+v, want page 1 at low priority", ev)
	}
	if s := p.Stats(); s.EvictionsByPriority[PriorityLow] != 1 {
		t.Errorf("EvictionsByPriority = %v, want one low-priority eviction", s.EvictionsByPriority)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
}

// TestAbortedFrameLeavesNoResidue guards the Abort path's frame-table and
// pending-counter bookkeeping under interleaved traffic.
func TestAbortedFrameLeavesNoResidue(t *testing.T) {
	p := MustNewPool(4)
	for i := 0; i < 50; i++ {
		pid := disk.PageID(i % 6)
		st, _ := p.Acquire(pid)
		switch st {
		case Miss:
			if i%3 == 0 {
				if err := p.Abort(pid); err != nil {
					t.Fatalf("Abort(%d): %v", pid, err)
				}
				continue
			}
			if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
				t.Fatalf("Fill(%d): %v", pid, err)
			}
			fallthrough
		case Hit:
			if err := p.Release(pid, PriorityNormal); err != nil {
				t.Fatalf("Release(%d): %v", pid, err)
			}
		}
		p.CheckInvariants()
	}
	s := p.Stats()
	if s.Aborts == 0 {
		t.Fatal("scenario produced no aborts")
	}
	if s.Misses != s.Fills+s.Aborts {
		t.Errorf("Misses (%d) != Fills (%d) + Aborts (%d)", s.Misses, s.Fills, s.Aborts)
	}
}

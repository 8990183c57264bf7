package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"scanshare/internal/trace"
)

// span is one recorded interval. Harness spans wrap the calls the benchmark
// makes into a layer; program spans are the program's own span tracer output,
// converted so that one file holds both, on one clock. Name is
// "<layer>.<call>"; Op names the operation (query, request, repetition) the
// span belongs to. Harness IDs are negative and program IDs positive, so a
// program root can name the harness span that caused it as its parent.
type span struct {
	Src    string `json:"src"` // "harness" or "program"
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
	// Count and Busy are set on a program span that stands for many: all the
	// waits of one kind under one scan, from the first one's start to the
	// last one's end, Busy nanoseconds of which were spent waiting.
	Count int64 `json:"count,omitempty"`
	Busy  int64 `json:"busy_ns,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanLog keeps harness spans in memory until the run ends. A nil log records
// nothing, so the untraced pass pays one nil check per call site.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// openSpan is a started harness span; end closes it.
type openSpan struct {
	log *spanLog
	s   span
}

// start opens a span under parent (0 for a root) and returns its handle.
func (l *spanLog) start(parent int64, op, name string) openSpan {
	if l == nil {
		return openSpan{}
	}
	l.mu.Lock()
	l.next--
	id := l.next
	l.mu.Unlock()
	return openSpan{log: l, s: span{Src: "harness", ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(l.epoch))}}
}

func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = int64(time.Since(o.log.epoch))
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, o.s)
	o.log.mu.Unlock()
}

// Now makes the log the program tracer's clock (vclock.Clock), so program
// spans are stamped on the harness's epoch.
func (l *spanLog) Now() time.Duration { return time.Since(l.epoch) }

// add records an already measured interval (wall times).
func (l *spanLog) add(parent int64, op, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.next--
	l.spans = append(l.spans, span{Src: "harness", ID: l.next, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// programSpanNames maps the program's span kinds onto "<layer>.<call>" names,
// by the layer whose time the span measures.
var programSpanNames = map[trace.SpanKind]string{
	trace.SpanRequest:  "server.request",
	trace.SpanCompile:  "sql.compile",
	trace.SpanQueue:    "server.queue",
	trace.SpanScan:     "realtime.scan",
	trace.SpanThrottle: "core.throttle",
	trace.SpanPoolWait: "buffer.pool_wait",
	trace.SpanRead:     "realtime.read",
	trace.SpanDelivery: "realtime.delivery",
	trace.SpanFold:     "exec.fold",
}

// compactSink is the sink the harness attaches to the program's tracer. The
// runner emits one span per physical read — 1.7 million of them over
// serve_closed — so keeping every event costs hundreds of megabytes and stalls
// the journal's drain until its ring overflows. The sink keeps the structural
// spans (request, compile, queue, scan) as they are and folds the leaf waits
// (throttle, pool wait, read, delivery, fold) into one total per scan and
// kind, which is all the critical-path breakdown uses of them. Events that
// are not spans (evictions, manager decisions) are counted and let go.
type compactSink struct {
	kept   []trace.Event
	leaves map[leafKey]*leafTotal
	order  []leafKey // first-seen, so output is deterministic
}

type leafKey struct {
	parent int64
	kind   trace.SpanKind
}

type leafTotal struct {
	trace, scan, table int64
	count              int64
	busy, first, last  time.Duration
}

func newCompactSink() *compactSink { return &compactSink{leaves: make(map[leafKey]*leafTotal)} }

// Consume implements trace.Sink; the tracer calls it from one goroutine at a
// time. Close events carry their span's whole duration, so opens are not
// needed.
func (c *compactSink) Consume(batch []trace.Event) {
	for _, ev := range batch {
		if ev.Kind != trace.KindSpanClose {
			continue
		}
		switch ev.SpanKind {
		case trace.SpanThrottle, trace.SpanPoolWait, trace.SpanRead, trace.SpanDelivery, trace.SpanFold:
			k := leafKey{ev.Parent, ev.SpanKind}
			t := c.leaves[k]
			if t == nil {
				t = &leafTotal{trace: ev.Trace, scan: ev.Scan, table: ev.Table, first: ev.Time - ev.Wait}
				c.leaves[k] = t
				c.order = append(c.order, k)
			}
			t.count++
			t.busy += ev.Wait
			t.last = max(t.last, ev.Time)
		default:
			c.kept = append(c.kept, ev)
		}
	}
}

// Close implements trace.Sink.
func (c *compactSink) Close() error { return nil }

// leafIDBase numbers the spans that stand for a scan's folded waits; the
// program's own span IDs count up from 1 and never get here.
const leafIDBase = int64(1) << 62

// journal returns the kept events plus one close event per folded total,
// which is what trace.Assemble needs to compute the same breakdown as from
// the full journal.
func (c *compactSink) journal() []trace.Event {
	evs := append([]trace.Event(nil), c.kept...)
	for i, k := range c.order {
		t := c.leaves[k]
		evs = append(evs, trace.Event{Kind: trace.KindSpanClose, SpanKind: k.kind, Trace: t.trace,
			Span: leafIDBase + int64(i), Parent: k.parent, Scan: t.scan, Table: t.table,
			Time: t.last, Wait: t.busy})
	}
	return evs
}

// issued is what the harness knows about a program trace it caused: the
// operation's name and the harness span that made the call.
type issued struct {
	op     string
	caller int64
}

// programSpans flattens the program's assembled span trees. by tells which
// harness operation caused a trace; a trace the harness did not cause keeps
// its trace ID as the operation and stays a root.
func programSpans(asm *trace.Assembly, sink *compactSink, by map[int64]issued) []span {
	var out []span
	origin := func(traceID int64) issued {
		from, ok := by[traceID]
		if !ok {
			from.op = "trace-" + strconv.FormatInt(traceID, 10)
		}
		return from
	}
	for _, t := range asm.Trees {
		from := origin(t.Trace)
		var walk func(n *trace.SpanNode)
		walk = func(n *trace.SpanNode) {
			if n.Closed && n.ID < leafIDBase {
				parent := n.Parent
				if n == t.Root {
					parent = from.caller
				}
				out = append(out, span{Src: "program", ID: n.ID, Parent: parent, Op: from.op,
					Name: programSpanNames[n.Kind], Start: int64(n.Start), End: int64(n.End)})
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(t.Root)
	}
	for i, k := range sink.order {
		t := sink.leaves[k]
		from := origin(t.trace)
		out = append(out, span{Src: "program", ID: leafIDBase + int64(i), Parent: k.parent, Op: from.op,
			Name: programSpanNames[k.kind], Start: int64(t.first), End: int64(t.last),
			Count: t.count, Busy: int64(t.busy)})
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

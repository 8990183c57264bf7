package metrics

import "unsafe"

// Kind says how a declared counter is written and how the Prometheus
// exporter renders it.
type Kind uint8

const (
	// KindCount is an event count, rendered as an integer counter.
	KindCount Kind = iota
	// KindSeconds accumulates nanoseconds and renders as a counter of
	// seconds.
	KindSeconds
	// KindMax mirrors a running total kept elsewhere, synced by taking the
	// maximum so it stays monotonic; it renders as an integer counter.
	KindMax
	// KindGauge is a level that moves both ways, rendered as a gauge.
	KindGauge
)

// PromType returns the Prometheus TYPE of the kind.
func (k Kind) PromType() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Desc declares one int64 field of the snapshot struct S: the Prometheus
// family that exposes it and the field's place in S. A table of Descs is the
// one list a snapshot, a reset and an exposition loop over, so a counter is
// declared once.
type Desc[S any] struct {
	Name string // Prometheus family name
	Help string // Prometheus HELP text
	Kind Kind
	// Off is the field's offset in S, from unsafe.Offsetof. The field must
	// be an int64 or a time.Duration; each table's test checks that.
	Off uintptr
}

// At returns the field of s that d declares.
func (d *Desc[S]) At(s *S) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(s), d.Off))
}

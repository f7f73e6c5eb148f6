package telemetry

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// SpanBatch is the JSON payload a module publishes on
// `ifot/ctrl/trace/<moduleID>`: the spans completed since the last flush,
// plus how many were shed because the export buffer was full. SentAt is
// stamped from the module's own clock so the collector can sanity-check
// its announce-derived skew offsets.
type SpanBatch struct {
	Module  string    `json:"module"`
	SentAt  time.Time `json:"sentAt"`
	Dropped uint64    `json:"dropped,omitempty"`
	Spans   []Span    `json:"spans"`
}

// EncodeSpanBatch serializes a batch for publishing.
func EncodeSpanBatch(b SpanBatch) ([]byte, error) { return json.Marshal(b) }

// DecodeSpanBatch parses a published batch.
func DecodeSpanBatch(data []byte) (SpanBatch, error) {
	var b SpanBatch
	err := json.Unmarshal(data, &b)
	return b, err
}

// DefaultSpanExportBuffer bounds the exporter's pending-span buffer when
// the caller does not choose a size.
const DefaultSpanExportBuffer = 1024

// SpanExporter buffers completed spans for periodic batched export; Offer
// is the Tracer sink.
type SpanExporter = ExportQueue[Span]

// NewSpanExporter creates an exporter buffering at most limit spans
// between flushes (non-positive = DefaultSpanExportBuffer).
func NewSpanExporter(limit int) *SpanExporter {
	if limit <= 0 {
		limit = DefaultSpanExportBuffer
	}
	return NewExportQueue[Span](limit)
}

// ExportQueue is the bounded buffer between a producer on an observed
// path and a periodic exporter that drains it. When the buffer is full,
// new items are dropped and counted rather than blocking the producer —
// export must never apply backpressure to the paths it observes. All
// methods are safe for concurrent use; Drain, Pending and Dropped are
// also safe on a nil queue (export disabled).
type ExportQueue[T any] struct {
	mu      sync.Mutex
	buf     []T
	limit   int
	dropped atomic.Uint64
}

// NewExportQueue creates a queue buffering at most limit items between
// drains.
func NewExportQueue[T any](limit int) *ExportQueue[T] {
	return &ExportQueue[T]{buf: make([]T, 0, limit), limit: limit}
}

// Offer enqueues v, dropping it (and counting the drop) when the buffer
// is full.
func (q *ExportQueue[T]) Offer(v T) {
	q.mu.Lock()
	if len(q.buf) >= q.limit {
		q.mu.Unlock()
		q.dropped.Add(1)
		return
	}
	q.buf = append(q.buf, v)
	q.mu.Unlock()
}

func (q *ExportQueue[T]) setLimit(n int) {
	q.mu.Lock()
	q.limit = n
	q.mu.Unlock()
}

// Drain removes and returns all buffered items (nil when empty).
func (q *ExportQueue[T]) Drain() []T {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == 0 {
		return nil
	}
	out := q.buf
	q.buf = make([]T, 0, q.limit)
	return out
}

// Pending reports the number of buffered items.
func (q *ExportQueue[T]) Pending() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Dropped reports how many items were shed on a full buffer.
func (q *ExportQueue[T]) Dropped() uint64 {
	if q == nil {
		return 0
	}
	return q.dropped.Load()
}

package obs

import (
	"context"
	"fmt"
	"io"
	"time"
)

// Span is one RPC trace record: what was asked of which worker, how many
// bytes moved, and where the wall-clock time of the exchange went. The
// phase decomposition (documented in DESIGN.md §6) is:
//
//	Queue   — waiting for a slot in the connection's in-flight window
//	          (exchanges are pipelined: up to Window calls share one
//	          connection, a call queues only while the window is full);
//	Encode  — encoding and flushing the request envelope and its slabs;
//	Network — blocked on the wire minus the server's reported handler time
//	          (clamped at zero: clock domains differ);
//	Execute — the server-reported handler duration (ExecNanos on the reply);
//	Decode  — decoding the reply minus the time blocked on the wire.
//
// Spans are created by fedrpc.Client per exchange; a caller that wants the
// span (or wants to label it) threads one in via WithSpan/WithOp.
type Span struct {
	// Op is the coordinator-level operation label (WithOp), "" when the
	// call was issued outside a labeled operation.
	Op string
	// Addr is the worker address of the exchange.
	Addr string
	// ReqType is the primary (first) request type of the batch; Batch is
	// the number of requests in the envelope.
	ReqType string
	Batch   int
	// Deferred is how many of the Batch requests are earlier reply-less
	// operations the coordinator buffered and shipped with this call
	// (write-behind dispatch); 0 for a batch that is all the caller's own.
	Deferred int
	// BytesOut/BytesIn count the wire bytes of this exchange only.
	BytesOut, BytesIn int64
	// Start is when the caller entered the client.
	Start time.Time
	// Phase timings; see the package comment for the decomposition.
	Queue, Encode, Network, Execute, Decode time.Duration
	// Total is the full exchange duration including queueing.
	Total time.Duration
	// Err is the transport error of a failed exchange ("" on success).
	Err string
}

// String renders the span as one structured key=value line — the same
// format the slow-RPC log uses, so log lines and /debug/rpcs rows read
// identically.
func (s Span) String() string {
	line := fmt.Sprintf("op=%s addr=%s type=%s batch=%d bytes_out=%d bytes_in=%d total=%s queue=%s encode=%s network=%s execute=%s decode=%s",
		orDash(s.Op), s.Addr, s.ReqType, s.Batch, s.BytesOut, s.BytesIn,
		s.Total.Round(time.Microsecond), s.Queue.Round(time.Microsecond),
		s.Encode.Round(time.Microsecond), s.Network.Round(time.Microsecond),
		s.Execute.Round(time.Microsecond), s.Decode.Round(time.Microsecond))
	if s.Deferred > 0 {
		line += fmt.Sprintf(" deferred=%d", s.Deferred)
	}
	if s.Err != "" {
		line += fmt.Sprintf(" err=%q", s.Err)
	}
	return line
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

type spanCtxKey struct{}
type opCtxKey struct{}

// WithSpan returns a context carrying sp for the RPC layer to fill in:
// the fedrpc client populates the span of its context (instead of an
// internal one) so callers can inspect per-call phase timings.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// WithOp returns a context labeled with a coordinator-level operation
// name; RPC spans issued under it record the label in Span.Op.
func WithOp(ctx context.Context, op string) context.Context {
	return context.WithValue(ctx, opCtxKey{}, op)
}

// Op returns the operation label carried by ctx ("" when unlabeled).
func Op(ctx context.Context) string {
	op, _ := ctx.Value(opCtxKey{}).(string)
	return op
}

// spanRingSize bounds the recent-span ring per registry.
const spanRingSize = 256

// RecordSpan appends a completed span to the registry's recent-span ring
// (fixed size, oldest overwritten).
func (r *Registry) RecordSpan(s Span) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if r.spans == nil {
		r.spans = make([]Span, spanRingSize)
	}
	r.spans[r.spanNext] = s
	r.spanNext = (r.spanNext + 1) % spanRingSize
	if r.spanLen < spanRingSize {
		r.spanLen++
	}
}

// Spans returns the retained spans, oldest first.
func (r *Registry) Spans() []Span {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]Span, 0, r.spanLen)
	start := r.spanNext - r.spanLen
	for i := 0; i < r.spanLen; i++ {
		out = append(out, r.spans[((start+i)%spanRingSize+spanRingSize)%spanRingSize])
	}
	return out
}

// WriteSpans renders the retained spans (oldest first), one per line.
func (r *Registry) WriteSpans(w io.Writer) error {
	for _, s := range r.Spans() {
		if _, err := fmt.Fprintln(w, s.String()); err != nil {
			return err
		}
	}
	return nil
}
